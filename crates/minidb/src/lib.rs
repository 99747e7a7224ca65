//! # minidb — embedded SQL database substrate
//!
//! A from-scratch, single-table-query SQL engine standing in for the
//! production DBMSes (MySQL, PostgreSQL, Oracle, DB2, Sybase, …) of the
//! Drivolution paper. It provides everything the paper's mechanisms
//! require of a database:
//!
//! * a relational engine with typed columns, NOT NULL / PRIMARY KEY /
//!   REFERENCES constraints, transactions with rollback, temporary tables
//!   and users (no SQL privileges: see `DESIGN.md` §1) — enough to host
//!   the paper's `information_schema.drivers` and `driver_permission`
//!   tables (Tables 1–2) and run the paper's driver-matchmaking SQL
//!   verbatim (Sample code 1–2);
//! * a **versioned wire protocol** ([`wire`]) with three protocol versions
//!   and three authentication methods, so driver↔database compatibility
//!   failures occur at the same lifecycle steps as in the paper (§2 steps
//!   4–6);
//! * a wire server implementing [`netsim::Service`] plus a raw client.
//!
//! # Examples
//!
//! ```
//! use minidb::{MiniDb, Value};
//!
//! let db = MiniDb::new("orders");
//! let mut session = db.admin_session();
//! db.exec(&mut session, "CREATE TABLE o (id INTEGER PRIMARY KEY, qty INTEGER)")?;
//! db.exec(&mut session, "INSERT INTO o VALUES (1, 10), (2, 20)")?;
//! let big = db.exec(&mut session, "SELECT count(*) FROM o WHERE qty > 15")?.rows()?;
//! assert_eq!(big.rows[0][0], minidb::Value::BigInt(1));
//! # Ok::<(), minidb::DbError>(())
//! ```

#![warn(missing_docs)]

pub mod auth;
mod db;
mod error;
pub mod exec;
pub mod schema;
pub mod sql;
pub mod storage;
mod value;
pub mod wire;

pub use auth::{AuthMethod, AuthStore};
pub use db::{MiniDb, Session};
pub use error::{DbError, DbResult};
pub use exec::{positional, Bind, Named, Params, QueryResult, RowSet};
pub use schema::{Column, TableSchema};
pub use value::{like_match, DataType, Value};
