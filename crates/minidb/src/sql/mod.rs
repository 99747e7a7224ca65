//! SQL front-end: tokens, AST, and parser.

pub mod ast;
pub mod parser;
pub mod token;

pub use parser::parse;
pub use token::leading_keyword;
