//! Table schemas: columns, constraints, and row validation.

use std::fmt;

use crate::error::{DbError, DbResult};
use crate::value::{DataType, Value};

/// A column definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Column {
    name: String,
    dtype: DataType,
    not_null: bool,
    primary_key: bool,
    /// `REFERENCES table(column)` foreign-key target, if any.
    references: Option<(String, String)>,
}

impl Column {
    /// Creates a nullable column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
            not_null: false,
            primary_key: false,
            references: None,
        }
    }

    /// Marks the column NOT NULL.
    pub fn not_null(mut self) -> Self {
        self.not_null = true;
        self
    }

    /// Marks the column PRIMARY KEY (implies NOT NULL): the table's key
    /// is this column alone.
    pub fn primary_key(mut self) -> Self {
        self.primary_key = true;
        self.not_null = true;
        self
    }

    /// Adds a `REFERENCES table(column)` constraint.
    pub fn references(mut self, table: impl Into<String>, column: impl Into<String>) -> Self {
        self.references = Some((table.into(), column.into()));
        self
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Whether the column is NOT NULL.
    pub fn is_not_null(&self) -> bool {
        self.not_null
    }

    /// Whether the column is the primary key or one of its columns.
    pub fn is_primary_key(&self) -> bool {
        self.primary_key
    }

    /// Foreign-key target, if declared.
    pub fn references_target(&self) -> Option<(&str, &str)> {
        self.references
            .as_ref()
            .map(|(t, c)| (t.as_str(), c.as_str()))
    }
}

/// The most columns a primary key may span: a filter's pinned key
/// columns are one bit each of a `u64`.
const MAX_KEY_COLUMNS: usize = 64;

/// A table schema: ordered named columns plus constraints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableSchema {
    name: String,
    columns: Vec<Column>,
    /// Positions of the primary-key columns, in key order (empty: no
    /// key). Kept here so no statement rebuilds the list.
    key: Vec<usize>,
}

impl TableSchema {
    /// Creates a schema.
    ///
    /// # Errors
    ///
    /// [`DbError::Constraint`] on duplicate column names or multiple
    /// primary keys.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> DbResult<Self> {
        let name = name.into();
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.to_ascii_lowercase()) {
                return Err(DbError::Constraint(format!(
                    "duplicate column {} in table {}",
                    c.name, name
                )));
            }
        }
        let key: Vec<usize> = (columns.iter().enumerate())
            .filter_map(|(i, c)| c.primary_key.then_some(i))
            .collect();
        if key.len() > 1 {
            return Err(DbError::Constraint(format!(
                "table {name} declares {} primary keys",
                key.len()
            )));
        }
        Ok(TableSchema { name, columns, key })
    }

    /// Declares the primary key as a table constraint, `PRIMARY KEY (a,
    /// b, …)`: the named columns, in that order, become NOT NULL and
    /// together unique.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchColumn`] for an unknown column;
    /// [`DbError::Constraint`] for a column named twice, a table that
    /// already has a key, or a list that is empty or longer than 64.
    pub fn with_key<S: AsRef<str>>(mut self, names: &[S]) -> DbResult<Self> {
        let mut key = Vec::with_capacity(names.len());
        for name in names {
            let i = self.col_index(name.as_ref())?;
            if key.contains(&i) {
                return Err(DbError::Constraint(format!(
                    "key column {}.{} named twice",
                    self.name,
                    name.as_ref()
                )));
            }
            key.push(i);
        }
        if !self.key.is_empty() || key.is_empty() || key.len() > MAX_KEY_COLUMNS {
            return Err(DbError::Constraint(format!(
                "table {} cannot take a key of {} columns",
                self.name,
                key.len()
            )));
        }
        for &i in &key {
            if let Some(c) = self.columns.get_mut(i) {
                c.primary_key = true;
                c.not_null = true;
            }
        }
        self.key = key;
        Ok(self)
    }

    /// Table name (may be dotted, e.g. `information_schema.drivers`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ordered column definitions.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Index of a column by case-insensitive name.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchColumn`] when absent.
    pub fn col_index(&self, name: &str) -> DbResult<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| DbError::NoSuchColumn(format!("{}.{}", self.name, name)))
    }

    /// Positions of the primary-key columns, in key order; empty when the
    /// table has no key.
    pub fn key(&self) -> &[usize] {
        &self.key
    }

    /// Validates and coerces a full row to this schema.
    ///
    /// # Errors
    ///
    /// [`DbError::Constraint`] on arity or NOT NULL violations,
    /// [`DbError::Type`] on type mismatches.
    pub fn validate_row(&self, row: Vec<Value>) -> DbResult<Vec<Value>> {
        if row.len() != self.columns.len() {
            return Err(DbError::Constraint(format!(
                "table {} expects {} columns, got {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        let mut row = row;
        for (v, c) in row.iter_mut().zip(&self.columns) {
            self.check_not_null(c, v)?;
            *v = std::mem::replace(v, Value::Null).coerce_to(c.dtype)?;
        }
        Ok(row)
    }

    /// Rejects NULL in column `c` if it is NOT NULL.
    fn check_not_null(&self, c: &Column, v: &Value) -> DbResult<()> {
        if v.is_null() && c.not_null {
            return Err(DbError::Constraint(format!(
                "column {}.{} is NOT NULL",
                self.name, c.name
            )));
        }
        Ok(())
    }

    /// Checks, without coercing it, that column `c` of this table can
    /// store `v`, as [`validate_row`](Self::validate_row) would: for a
    /// write that must not stop halfway through a row.
    ///
    /// # Errors
    ///
    /// [`DbError::Constraint`] or [`DbError::Type`].
    pub(crate) fn check_storable(&self, c: &Column, v: &Value) -> DbResult<()> {
        self.check_not_null(c, v)?;
        if !v.conforms_to(c.dtype) {
            let ty = c.dtype;
            return Err(DbError::Type(format!("cannot store {v} in {ty} column")));
        }
        Ok(())
    }
}

impl fmt::Display for TableSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{} {}", c.name, c.dtype)?;
            if c.primary_key && self.key.len() == 1 {
                f.write_str(" PRIMARY KEY")?;
            } else if c.not_null {
                f.write_str(" NOT NULL")?;
            }
        }
        if self.key.len() > 1 {
            f.write_str(", PRIMARY KEY (")?;
            for (i, &pos) in self.key.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                f.write_str(self.columns.get(pos).map_or("?", |c| &c.name))?;
            }
            f.write_str(")")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drivers_schema() -> TableSchema {
        TableSchema::new(
            "drivers",
            vec![
                Column::new("driver_id", DataType::Integer).primary_key(),
                Column::new("api_name", DataType::Varchar).not_null(),
                Column::new("binary_code", DataType::Blob).not_null(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn col_index_is_case_insensitive() {
        let s = drivers_schema();
        assert_eq!(s.col_index("API_NAME").unwrap(), 1);
        assert!(s.col_index("nope").is_err());
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = TableSchema::new(
            "t",
            vec![
                Column::new("a", DataType::Integer),
                Column::new("A", DataType::Varchar),
            ],
        );
        assert!(r.is_err());
    }

    #[test]
    fn multiple_primary_keys_rejected() {
        let r = TableSchema::new(
            "t",
            vec![
                Column::new("a", DataType::Integer).primary_key(),
                Column::new("b", DataType::Integer).primary_key(),
            ],
        );
        assert!(r.is_err());
    }

    #[test]
    fn a_key_constraint_spans_columns_and_is_the_only_key() {
        let cols = || {
            vec![
                Column::new("user", DataType::Varchar),
                Column::new("host", DataType::Varchar),
                Column::new("at", DataType::Timestamp),
            ]
        };
        let s = TableSchema::new("leases", cols())
            .unwrap()
            .with_key(&["HOST", "user"])
            .unwrap();
        assert_eq!(s.key(), &[1, 0]);
        assert!(s.columns()[0].is_not_null() && s.columns()[1].is_primary_key());
        assert!(!s.columns()[2].is_primary_key());
        assert_eq!(
            s.to_string(),
            "leases(user VARCHAR NOT NULL, host VARCHAR NOT NULL, at TIMESTAMP, \
             PRIMARY KEY (host, user))"
        );
        let keyed = || TableSchema::new("t", cols()).unwrap();
        assert!(keyed().with_key(&["user", "user"]).is_err());
        assert!(keyed().with_key(&["nope"]).is_err());
        assert!(keyed().with_key::<&str>(&[]).is_err());
        assert!(s.with_key(&["at"]).is_err());
        let mut marked = cols();
        marked[2] = marked[2].clone().primary_key();
        let marked = TableSchema::new("t", marked).unwrap();
        assert!(marked.with_key(&["user"]).is_err());
    }

    #[test]
    fn validate_row_enforces_not_null_and_types() {
        let s = drivers_schema();
        assert!(s
            .validate_row(vec![
                Value::Integer(1),
                Value::Null,
                Value::Blob(vec![].into())
            ])
            .is_err());
        assert!(s
            .validate_row(vec![Value::Integer(1), Value::str("JDBC")])
            .is_err());
        assert!(s
            .validate_row(vec![
                Value::str("x"),
                Value::str("JDBC"),
                Value::Blob(vec![].into())
            ])
            .is_err());
        let ok = s
            .validate_row(vec![
                Value::BigInt(1),
                Value::str("JDBC"),
                Value::Blob(vec![1].into()),
            ])
            .unwrap();
        // BigInt literal is coerced to the INTEGER storage class.
        assert_eq!(ok[0], Value::Integer(1));
    }

    #[test]
    fn pk_implies_not_null() {
        let c = Column::new("id", DataType::Integer).primary_key();
        assert!(c.is_not_null());
    }

    #[test]
    fn display_includes_constraints() {
        let s = drivers_schema().to_string();
        assert!(s.contains("driver_id INTEGER PRIMARY KEY"));
        assert!(s.contains("api_name VARCHAR NOT NULL"));
    }
}
