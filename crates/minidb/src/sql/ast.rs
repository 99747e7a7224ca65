//! Abstract syntax tree for the supported SQL subset.

use crate::value::{DataType, Value};

/// Binary operators, in SQL semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `AND` (three-valued)
    And,
    /// `OR` (three-valued)
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// An expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Column reference (optionally qualified; resolution ignores the
    /// qualifier since queries are single-table).
    Column(String),
    /// Named parameter (`$name`) or positional (`?`, named "1", "2", …).
    Param(String),
    /// `NOT expr`
    Not(Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// `true` for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`
    Like {
        /// Matched expression.
        expr: Box<Expr>,
        /// Pattern with `%`/`_` wildcards.
        pattern: Box<Expr>,
        /// `true` for `NOT LIKE`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// `true` for `NOT BETWEEN`.
        negated: bool,
    },
    /// Function call; `star` marks `COUNT(*)`.
    Func {
        /// Lowercased function name.
        name: String,
        /// Arguments (empty for `COUNT(*)`).
        args: Vec<Expr>,
        /// `true` for `COUNT(*)`.
        star: bool,
    },
}

/// One item of a SELECT list.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// An expression with an optional `AS alias`.
    Expr {
        /// Projected expression.
        expr: Expr,
        /// Output column name override.
        alias: Option<String>,
    },
}

/// A SELECT statement.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectStmt {
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// `FROM` table (single-table engine; `None` for `SELECT 1`).
    pub from: Option<String>,
    /// `WHERE` predicate.
    pub filter: Option<Expr>,
    /// `ORDER BY` keys with ascending flags.
    pub order_by: Vec<(Expr, bool)>,
}

/// A column definition in CREATE TABLE.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Column type.
    pub dtype: DataType,
    /// `NOT NULL` constraint.
    pub not_null: bool,
    /// `PRIMARY KEY` constraint.
    pub primary_key: bool,
    /// `REFERENCES table(column)` constraint.
    pub references: Option<(String, String)>,
}

/// A parsed SQL statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// `CREATE [TEMPORARY] TABLE`
    CreateTable {
        /// Table name (possibly dotted).
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
        /// The columns of a `PRIMARY KEY (a, b, …)` table constraint, in
        /// key order; empty without one.
        key: Vec<String>,
        /// `true` for session-scoped temporary tables.
        temporary: bool,
    },
    /// `INSERT [OR REPLACE] INTO t [(cols)] VALUES (…), (…)`
    Insert {
        /// Target table.
        table: String,
        /// Explicit column list, if given.
        columns: Option<Vec<String>>,
        /// Row value expressions.
        rows: Vec<Vec<Expr>>,
        /// `INSERT OR REPLACE`: a row whose key a stored row holds already
        /// gives that row its other columns instead of being inserted.
        or_replace: bool,
    },
    /// `SELECT …`
    Select(SelectStmt),
    /// `UPDATE t SET c = e, … [WHERE …]`
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        sets: Vec<(String, Expr)>,
        /// Row filter.
        filter: Option<Expr>,
    },
    /// `DELETE FROM t [WHERE …]`
    Delete {
        /// Target table.
        table: String,
        /// Row filter.
        filter: Option<Expr>,
    },
    /// `BEGIN`
    Begin,
    /// `COMMIT`
    Commit,
    /// `ROLLBACK`
    Rollback,
}
