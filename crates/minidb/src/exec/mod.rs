//! Execution engine: expression evaluation and statement execution.

#[allow(clippy::module_inception)]
pub mod exec;
pub mod expr;

pub use exec::{QueryResult, RowSet};
pub use expr::{positional, Bind, EvalCtx, Named, Params};
