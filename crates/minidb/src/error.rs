//! Error type for the minidb engine.

use std::error::Error;
use std::fmt;

/// Errors produced by SQL parsing, planning, execution, and the wire
/// protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DbError {
    /// Lexical error in the SQL text.
    Lex(String),
    /// Syntax error in the SQL text.
    Parse(String),
    /// Unknown table.
    NoSuchTable(String),
    /// Unknown column.
    NoSuchColumn(String),
    /// A table with this name already exists.
    TableExists(String),
    /// Row violates a schema constraint (type, NOT NULL, arity).
    Constraint(String),
    /// Duplicate primary key.
    DuplicateKey(String),
    /// Foreign-key violation.
    ForeignKey(String),
    /// Type error during expression evaluation.
    Type(String),
    /// A referenced parameter was not bound.
    UnboundParam(String),
    /// Unknown function.
    NoSuchFunction(String),
    /// Authentication failure.
    Auth(String),
    /// Permission failure. The engine has no SQL privileges to deny; the
    /// variant keeps its wire code for peers that do.
    Denied(String),
    /// Transaction state error (e.g. BEGIN inside a transaction).
    Txn(String),
    /// Unknown user.
    NoSuchUser(String),
    /// The server does not host the requested database.
    NoSuchDatabase(String),
    /// Wire-protocol violation or version mismatch.
    Protocol(String),
    /// The session was closed or never established.
    Session(String),
    /// Internal invariant violation.
    Internal(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Lex(m) => write!(f, "lexical error: {m}"),
            DbError::Parse(m) => write!(f, "syntax error: {m}"),
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            DbError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            DbError::TableExists(t) => write!(f, "table already exists: {t}"),
            DbError::Constraint(m) => write!(f, "constraint violation: {m}"),
            DbError::DuplicateKey(m) => write!(f, "duplicate primary key: {m}"),
            DbError::ForeignKey(m) => write!(f, "foreign key violation: {m}"),
            DbError::Type(m) => write!(f, "type error: {m}"),
            DbError::UnboundParam(p) => write!(f, "unbound parameter: {p}"),
            DbError::NoSuchFunction(n) => write!(f, "no such function: {n}"),
            DbError::Auth(m) => write!(f, "authentication failed: {m}"),
            DbError::Denied(m) => write!(f, "permission denied: {m}"),
            DbError::Txn(m) => write!(f, "transaction error: {m}"),
            DbError::NoSuchUser(u) => write!(f, "no such user: {u}"),
            DbError::NoSuchDatabase(d) => write!(f, "no such database: {d}"),
            DbError::Protocol(m) => write!(f, "protocol error: {m}"),
            DbError::Session(m) => write!(f, "session error: {m}"),
            DbError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl Error for DbError {}

/// Convenience alias used throughout the crate.
pub type DbResult<T> = Result<T, DbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_descriptive() {
        assert_eq!(
            DbError::NoSuchTable("drivers".into()).to_string(),
            "no such table: drivers"
        );
        assert!(DbError::Auth("bad password".into())
            .to_string()
            .contains("bad password"));
    }
}
