//! Statement execution against a catalog.

use std::borrow::Cow;
use std::cmp::Ordering;

use crate::error::{DbError, DbResult};
use crate::exec::expr::{Bind, EvalCtx};
use crate::schema::{Column, TableSchema};
use crate::sql::ast::{BinOp, ColumnDef, Expr, SelectItem, SelectStmt, Statement};
use crate::storage::{key_part, probe_hash, Catalog, RowId, Table, UndoRecord};
use crate::value::Value;

/// A result set: named columns and rows.
#[derive(Clone, Debug, PartialEq)]
pub struct RowSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Row data.
    pub rows: Vec<Vec<Value>>,
}

impl RowSet {
    /// The single value of a single-row, single-column result.
    ///
    /// # Errors
    ///
    /// [`DbError::Internal`] if the shape is not 1×1.
    pub fn scalar(&self) -> DbResult<&Value> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Ok(&self.rows[0][0])
        } else {
            Err(DbError::Internal(format!(
                "expected 1x1 result, got {}x{}",
                self.rows.len(),
                self.columns.len()
            )))
        }
    }
}

/// Result of executing one statement.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryResult {
    /// SELECT output.
    Rows(RowSet),
    /// Row count affected by DML / DDL acknowledgement.
    Affected(u64),
}

impl QueryResult {
    /// Projects the SELECT result or errors for DML results.
    ///
    /// # Errors
    ///
    /// [`DbError::Internal`] when the statement did not produce rows.
    pub fn rows(self) -> DbResult<RowSet> {
        match self {
            QueryResult::Rows(r) => Ok(r),
            QueryResult::Affected(_) => {
                Err(DbError::Internal("statement produced no row set".into()))
            }
        }
    }

    /// Number of affected rows, or an error for SELECT results.
    ///
    /// # Errors
    ///
    /// [`DbError::Internal`] when the statement produced rows.
    pub fn affected(self) -> DbResult<u64> {
        match self {
            QueryResult::Affected(n) => Ok(n),
            QueryResult::Rows(_) => Err(DbError::Internal("statement produced a row set".into())),
        }
    }
}

fn build_schema(name: &str, defs: &[ColumnDef], key: &[String]) -> DbResult<TableSchema> {
    let mut cols = Vec::with_capacity(defs.len());
    for d in defs {
        let mut c = Column::new(d.name.clone(), d.dtype);
        if d.primary_key {
            c = c.primary_key();
        } else if d.not_null {
            c = c.not_null();
        }
        if let Some((t, col)) = &d.references {
            c = c.references(t.clone(), col.clone());
        }
        cols.push(c);
    }
    let schema = TableSchema::new(name, cols)?;
    if key.is_empty() {
        Ok(schema)
    } else {
        schema.with_key(key)
    }
}

/// Position of the column an expression names (qualified references
/// resolve by their last segment, as in [`EvalCtx`]).
fn column_index(schema: &TableSchema, name: &str) -> Option<usize> {
    schema.col_index(name.rsplit('.').next()?).ok()
}

/// Whether `e`, evaluated as a predicate on any row of the table, yields
/// TRUE, FALSE or NULL and never an error: comparisons and tests over
/// literals, columns that resolve and parameters that are bound, joined
/// by AND / OR / NOT.
fn total(e: &Expr, schema: &TableSchema, params: &dyn Bind) -> bool {
    let atom = |e: &Expr| match e {
        Expr::Literal(_) => true,
        Expr::Column(c) => column_index(schema, c).is_some(),
        Expr::Param(p) => params.bound(p).is_some(),
        _ => false,
    };
    match e {
        Expr::Binary {
            op: BinOp::And | BinOp::Or,
            lhs,
            rhs,
        } => total(lhs, schema, params) && total(rhs, schema, params),
        Expr::Binary {
            op: BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge,
            lhs,
            rhs,
        } => atom(lhs) && atom(rhs),
        Expr::Not(e) => total(e, schema, params),
        Expr::IsNull { expr, .. } => atom(expr),
        Expr::Like { expr, pattern, .. } => atom(expr) && atom(pattern),
        Expr::Between {
            expr, low, high, ..
        } => atom(expr) && atom(low) && atom(high),
        _ => false,
    }
}

/// The key slot and probe hash of `e` when it is `k = <literal |
/// $param>` (either operand order) for a key column `k` and a decided
/// comparison: a NULL probe, an unbound parameter or a probe outside the
/// column's type family pins nothing (`id = 'x'` is NULL, not FALSE, on
/// every row). The probe is hashed as coerced to the column's type.
fn pin(e: &Expr, schema: &TableSchema, params: &dyn Bind) -> Option<(usize, u64)> {
    let Expr::Binary {
        op: BinOp::Eq,
        lhs,
        rhs,
    } = e
    else {
        return None;
    };
    let slot = |e: &Expr| match e {
        Expr::Column(c) => {
            let pos = column_index(schema, c)?;
            let slot = schema.key().iter().position(|&k| k == pos)?;
            Some((slot, schema.columns().get(pos)?.dtype()))
        }
        _ => None,
    };
    let ((slot, dtype), probe) = match (slot(lhs), slot(rhs)) {
        (Some(slot), None) => (slot, rhs),
        (None, Some(slot)) => (slot, lhs),
        _ => return None,
    };
    let probe = match &**probe {
        Expr::Literal(v) => v,
        Expr::Param(p) => params.bound(p)?,
        _ => return None,
    };
    Some((slot, probe_hash(probe, dtype)?))
}

/// Walks the `AND` chain of `e` in evaluation order, adding each key
/// slot a conjunct pins ([`pin`]) to `pins.0` and its [`key_part`] to
/// `pins.1`, the first pin of a slot only; `false` once no later conjunct
/// can pin more: every key column is pinned, or a conjunct that is not
/// [`total`] may raise an error before any later one is reached.
fn walk_pins(e: &Expr, schema: &TableSchema, params: &dyn Bind, pins: &mut (u64, u64)) -> bool {
    if let Expr::Binary {
        op: BinOp::And,
        lhs,
        rhs,
    } = e
    {
        return walk_pins(lhs, schema, params, pins) && walk_pins(rhs, schema, params, pins);
    }
    let width = schema.key().len();
    let Some((slot, h)) = pin(e, schema, params) else {
        return total(e, schema, params);
    };
    if pins.0 & 1 << slot == 0 {
        pins.0 |= 1 << slot;
        pins.1 = pins.1.wrapping_add(key_part(width, slot, h));
    }
    (pins.0.count_ones() as usize) < width
}

/// The index hash of the one key `filter` can be TRUE for, when its shape
/// says so: every key column pinned ([`pin`]) by a conjunct of its `AND`
/// chain that only [`total`] conjuncts precede. On every row with a
/// different key one of those conjuncts is FALSE, the `AND`s before it
/// raise no error and `AND` stops at FALSE, so skipping those rows cannot
/// change what the statement returns or which error it raises.
fn pinned_key(filter: &Expr, schema: &TableSchema, params: &dyn Bind) -> Option<u64> {
    let width = schema.key().len();
    if width == 0 {
        return None;
    }
    let mut pins = (0, 0);
    walk_pins(filter, schema, params, &mut pins);
    (pins.0.count_ones() as usize == width).then_some(pins.1)
}

/// The one access path of SELECT, UPDATE and DELETE: calls `hit` on each
/// row of `t` on which `filter` is TRUE (on every row without one), in
/// row-id order, stopping at the first error of either. When the filter
/// pins the primary key ([`pinned_key`]) only the indexed candidates are
/// looked at, otherwise every row; either way the unchanged filter is
/// evaluated on each candidate, so the index decides how many rows are
/// examined and never which ones match.
fn for_each_match<'a>(
    t: &'a Table,
    filter: Option<&Expr>,
    params: &dyn Bind,
    now_ms: i64,
    mut hit: impl FnMut(RowId, &'a Vec<Value>) -> DbResult<()>,
) -> DbResult<()> {
    let schema = t.schema();
    let key = filter.and_then(|f| pinned_key(f, schema, params));
    for (id, row) in t.candidates(key) {
        let keep = match filter {
            Some(f) => EvalCtx::for_row(schema, row, params, now_ms).eval_bool(f)? == Some(true),
            None => true,
        };
        if keep {
            hit(id, row)?;
        }
    }
    Ok(())
}

/// Executes one data/DDL statement against `catalog`: the database's,
/// or a session's temporary tables.
///
/// `undo` receives reversal records for the mutations while a
/// transaction is open; temporary-table mutations are session-local and
/// never logged, so their caller passes `None`.
///
/// # Errors
///
/// Any [`DbError`] arising from resolution, validation, or evaluation.
pub fn execute_statement(
    catalog: &mut Catalog,
    stmt: &Statement,
    params: &dyn Bind,
    now_ms: i64,
    undo: Option<&mut Vec<UndoRecord>>,
) -> DbResult<QueryResult> {
    match stmt {
        Statement::CreateTable {
            name, columns, key, ..
        } => {
            catalog.create_table(build_schema(name, columns, key)?)?;
            Ok(QueryResult::Affected(0))
        }
        Statement::Insert {
            table,
            columns,
            rows,
            or_replace,
        } => exec_insert(
            catalog,
            table,
            columns.as_deref(),
            rows,
            *or_replace,
            params,
            now_ms,
            undo,
        ),
        Statement::Update {
            table,
            sets,
            filter,
        } => exec_update(catalog, table, sets, filter.as_ref(), params, now_ms, undo),
        Statement::Delete { table, filter } => {
            exec_delete(catalog, table, filter.as_ref(), params, now_ms, undo)
        }
        Statement::Select(s) => exec_select(catalog, s, params, now_ms).map(QueryResult::Rows),
        other => Err(DbError::Internal(format!(
            "statement not handled by executor: {other:?}"
        ))),
    }
}

/// What a column the column list of an `INSERT` leaves out takes.
static NULL: Value = Value::Null;

/// The value `exprs`, one row of an `INSERT` whose column list maps to
/// `positions` (`None`: every column, in order), gives the column at
/// schema position `pos`: borrowed when it is a literal or a parameter,
/// and NULL when the list leaves the column out.
fn supplied<'e>(
    ctx: &'e EvalCtx<'_>,
    positions: Option<&[usize]>,
    exprs: &'e [Expr],
    pos: usize,
) -> DbResult<Cow<'e, Value>> {
    let at = positions.map_or(Some(pos), |p| p.iter().rposition(|&q| q == pos));
    match at.and_then(|i| exprs.get(i)) {
        Some(e) => ctx.operand(e),
        None => Ok(Cow::Borrowed(&NULL)),
    }
}

/// Runs an `INSERT` in three passes over its rows: evaluates them, checks
/// their references, then writes them. No pass keeps a row: each reads
/// the values it needs from the statement, borrowed where it can, so an
/// `OR REPLACE` row whose key a row holds, found through the index by
/// those values, is written into that row with nothing built.
#[allow(clippy::too_many_arguments)]
fn exec_insert(
    catalog: &mut Catalog,
    table: &str,
    columns: Option<&[String]>,
    rows: &[Vec<Expr>],
    or_replace: bool,
    params: &dyn Bind,
    now_ms: i64,
    mut undo: Option<&mut Vec<UndoRecord>>,
) -> DbResult<QueryResult> {
    let t = catalog.table(table)?;
    let schema = t.schema();
    let width = schema.columns().len();
    // Map the explicit column list (if any) to schema positions.
    let positions: Option<Vec<usize>> = columns
        .map(|cols| cols.iter().map(|c| schema.col_index(c)).collect())
        .transpose()?;
    let positions = positions.as_deref();
    let arity = positions.map_or(width, <[usize]>::len);
    let ctx = EvalCtx::rowless(params, now_ms);
    for exprs in rows {
        if exprs.len() != arity {
            return Err(DbError::Constraint(format!(
                "INSERT supplies {} values for {arity} columns",
                exprs.len(),
            )));
        }
        for e in exprs {
            ctx.operand(e)?;
        }
    }
    // A row that takes a replacing row's values must not orphan a value
    // another table references.
    let replaces = or_replace && catalog.is_referenced(table);
    for exprs in rows {
        let value = |pos| supplied(&ctx, positions, exprs, pos);
        for (pos, col) in schema.columns().iter().enumerate() {
            if let Some((rt, rc)) = col.references_target() {
                catalog.check_reference(rt, rc, &*value(pos)?)?;
            }
        }
        let held = replaces.then(|| t.holders(|pos| value(pos).ok(), None).next());
        let Some((_, held)) = held.flatten() else {
            continue;
        };
        for (pos, (col, old)) in schema.columns().iter().zip(held).enumerate() {
            if old.sql_eq(&*value(pos)?) != Some(true) {
                catalog.check_no_referents(table, col.name(), old)?;
            }
        }
    }
    let t = catalog.table_mut(table)?;
    for exprs in rows {
        let value = |pos| supplied(&ctx, positions, exprs, pos);
        let held = or_replace.then(|| t.holders(|pos| value(pos).ok(), None).next());
        let (id, old) = match held.flatten().map(|(id, _)| id) {
            Some(id) => (id, t.write_in_place(id, undo.is_some(), value)?),
            None => {
                let mut row = Vec::with_capacity(width);
                for pos in 0..width {
                    row.push(value(pos)?.into_owned());
                }
                let id = if or_replace {
                    let row = t.schema().validate_row(row)?;
                    t.push(row)
                } else {
                    t.insert(row)?
                };
                (id, None)
            }
        };
        if let Some(log) = undo.as_deref_mut() {
            let table = table.to_string();
            log.push(match old {
                Some(old) => UndoRecord::Updated { table, id, old },
                None => UndoRecord::Inserted { table, id },
            });
        }
    }
    Ok(QueryResult::Affected(rows.len() as u64))
}

fn exec_update(
    catalog: &mut Catalog,
    table: &str,
    sets: &[(String, Expr)],
    filter: Option<&Expr>,
    params: &dyn Bind,
    now_ms: i64,
    mut undo: Option<&mut Vec<UndoRecord>>,
) -> DbResult<QueryResult> {
    let t = catalog.table(table)?;
    let schema = t.schema();
    let set_positions: Vec<usize> = sets
        .iter()
        .map(|(c, _)| schema.col_index(c))
        .collect::<DbResult<_>>()?;
    // Phase 1: compute new images under an immutable borrow.
    let mut changes: Vec<(RowId, &Vec<Value>, Vec<Value>)> = Vec::new();
    for_each_match(t, filter, params, now_ms, |id, row| {
        let ctx = EvalCtx::for_row(schema, row, params, now_ms);
        let mut new_row = row.clone();
        for (pos, (_, e)) in set_positions.iter().zip(sets) {
            new_row[*pos] = ctx.eval(e)?;
        }
        changes.push((id, row, new_row));
        Ok(())
    })?;
    for (_, old, new) in &changes {
        for ((col, old), new) in schema.columns().iter().zip(*old).zip(new) {
            if old.sql_eq(new) == Some(true) {
                continue;
            }
            // New referencing values must resolve.
            if let Some((rt, rc)) = col.references_target() {
                catalog.check_reference(rt, rc, new)?;
            }
            // Values referenced by other tables must not be orphaned.
            catalog.check_no_referents(table, col.name(), old)?;
        }
    }
    let changes: Vec<(RowId, Vec<Value>)> =
        changes.into_iter().map(|(id, _, new)| (id, new)).collect();
    let n = changes.len() as u64;
    let t = catalog.table_mut(table)?;
    for (id, new) in changes {
        let old = t.update(id, new)?;
        if let Some(log) = undo.as_deref_mut() {
            log.push(UndoRecord::Updated {
                table: table.to_string(),
                id,
                old,
            });
        }
    }
    Ok(QueryResult::Affected(n))
}

fn exec_delete(
    catalog: &mut Catalog,
    table: &str,
    filter: Option<&Expr>,
    params: &dyn Bind,
    now_ms: i64,
    mut undo: Option<&mut Vec<UndoRecord>>,
) -> DbResult<QueryResult> {
    let t = catalog.table(table)?;
    let mut doomed: Vec<(RowId, &Vec<Value>)> = Vec::new();
    for_each_match(t, filter, params, now_ms, |id, row| {
        doomed.push((id, row));
        Ok(())
    })?;
    for (_, row) in &doomed {
        for (col, value) in t.schema().columns().iter().zip(*row) {
            catalog.check_no_referents(table, col.name(), value)?;
        }
    }
    let doomed: Vec<RowId> = doomed.into_iter().map(|(id, _)| id).collect();
    let n = doomed.len() as u64;
    let t = catalog.table_mut(table)?;
    for id in doomed {
        let old = t.delete(id)?;
        if let Some(log) = undo.as_deref_mut() {
            log.push(UndoRecord::Deleted {
                table: table.to_string(),
                id,
                old,
            });
        }
    }
    Ok(QueryResult::Affected(n))
}

fn item_name(item: &SelectItem, schema: Option<&TableSchema>) -> String {
    match item {
        SelectItem::Star => "*".to_string(),
        SelectItem::Expr { expr, alias } => {
            if let Some(a) = alias {
                return a.clone();
            }
            match expr {
                Expr::Column(c) => c
                    .rsplit_once('.')
                    .map_or(c.as_str(), |(_, base)| base)
                    .to_string(),
                Expr::Func { name, .. } => name.clone(),
                _ => {
                    let _ = schema;
                    "expr".to_string()
                }
            }
        }
    }
}

/// Executes a SELECT.
///
/// # Errors
///
/// Any [`DbError`] from resolution or evaluation.
pub fn exec_select(
    catalog: &Catalog,
    s: &SelectStmt,
    params: &dyn Bind,
    now_ms: i64,
) -> DbResult<RowSet> {
    let Some(from) = &s.from else {
        // Row-free SELECT: evaluate each item once.
        let ctx = EvalCtx::rowless(params, now_ms);
        if let Some(f) = &s.filter {
            if ctx.eval_bool(f)? != Some(true) {
                return Ok(RowSet {
                    columns: s.items.iter().map(|i| item_name(i, None)).collect(),
                    rows: Vec::new(),
                });
            }
        }
        let mut row = Vec::new();
        let mut names = Vec::new();
        for item in &s.items {
            match item {
                SelectItem::Star => return Err(DbError::Parse("SELECT * requires FROM".into())),
                SelectItem::Expr { expr, .. } => {
                    row.push(ctx.eval(expr)?);
                    names.push(item_name(item, None));
                }
            }
        }
        return Ok(RowSet {
            columns: names,
            rows: vec![row],
        });
    };

    let t = catalog.table(from)?;
    let schema = t.schema();

    // Collect rows passing the filter.
    let mut base: Vec<&Vec<Value>> = Vec::new();
    for_each_match(t, s.filter.as_ref(), params, now_ms, |_, row| {
        base.push(row);
        Ok(())
    })?;

    // `count(*)` is the one aggregate, and an aggregate query projects
    // nothing else.
    let count = |i: &&SelectItem| match i {
        SelectItem::Expr {
            expr: Expr::Func {
                name, star: true, ..
            },
            ..
        } => name == "count",
        _ => false,
    };
    match s.items.iter().filter(count).count() {
        0 => {}
        n if n < s.items.len() => {
            return Err(DbError::Parse(
                "an aggregate query projects count(*) only".into(),
            ))
        }
        n => {
            return Ok(RowSet {
                columns: s.items.iter().map(|i| item_name(i, Some(schema))).collect(),
                rows: vec![vec![Value::BigInt(base.len() as i64); n]],
            })
        }
    }

    // Order the base rows.
    let mut ordered: Vec<&Vec<Value>> = base;
    if !s.order_by.is_empty() {
        let mut keyed: Vec<(Vec<Value>, &Vec<Value>)> = Vec::with_capacity(ordered.len());
        for row in ordered {
            let ctx = EvalCtx::for_row(schema, row, params, now_ms);
            let keys: Vec<Value> = s
                .order_by
                .iter()
                .map(|(e, _)| ctx.eval(e))
                .collect::<DbResult<_>>()?;
            keyed.push((keys, row));
        }
        keyed.sort_by(|(ka, _), (kb, _)| {
            for ((a, b), (_, asc)) in ka.iter().zip(kb).zip(&s.order_by) {
                let ord = match (a.is_null(), b.is_null()) {
                    (true, true) => Ordering::Equal,
                    // NULLs sort last regardless of direction.
                    (true, false) => return Ordering::Greater,
                    (false, true) => return Ordering::Less,
                    (false, false) => {
                        let o = a.sql_cmp(b).unwrap_or(Ordering::Equal);
                        if *asc {
                            o
                        } else {
                            o.reverse()
                        }
                    }
                };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        ordered = keyed.into_iter().map(|(_, r)| r).collect();
    }
    // Project.
    let mut names = Vec::new();
    for item in &s.items {
        match item {
            SelectItem::Star => {
                for c in schema.columns() {
                    names.push(c.name().to_string());
                }
            }
            item => names.push(item_name(item, Some(schema))),
        }
    }
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(ordered.len());
    for row in ordered {
        let ctx = EvalCtx::for_row(schema, row, params, now_ms);
        let mut out = Vec::with_capacity(names.len());
        for item in &s.items {
            match item {
                SelectItem::Star => out.extend(row.iter().cloned()),
                SelectItem::Expr { expr, .. } => out.push(ctx.eval(expr)?),
            }
        }
        rows.push(out);
    }
    Ok(RowSet {
        columns: names,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::expr::Params;
    use crate::sql::parser::parse;

    fn run(catalog: &mut Catalog, sql: &str, params: &dyn Bind) -> DbResult<QueryResult> {
        let stmt = parse(sql)?;
        execute_statement(catalog, &stmt, params, 1_000, None)
    }

    fn setup() -> Catalog {
        let mut c = Catalog::new();
        let p = Params::new();
        run(
            &mut c,
            "CREATE TABLE drivers (driver_id INTEGER PRIMARY KEY, api_name VARCHAR NOT NULL, \
             platform VARCHAR, version_major INTEGER)",
            &p,
        )
        .unwrap();
        run(
            &mut c,
            "INSERT INTO drivers VALUES \
             (1, 'JDBC', NULL, 3), \
             (2, 'JDBC', 'linux-x86_64', 4), \
             (3, 'ODBC', 'windows-i586', 3)",
            &p,
        )
        .unwrap();
        c
    }

    #[test]
    fn insert_select_roundtrip() {
        let mut c = setup();
        let p = Params::new();
        let rs = run(&mut c, "SELECT * FROM drivers", &p)
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.columns[1], "api_name");
    }

    #[test]
    fn where_with_null_semantics() {
        let mut c = setup();
        let p = Params::new();
        // platform IS NULL matches driver 1 only; a plain comparison with
        // NULL matches nothing.
        let rs = run(
            &mut c,
            "SELECT driver_id FROM drivers WHERE platform IS NULL",
            &p,
        )
        .unwrap()
        .rows()
        .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Integer(1)]]);
        let rs = run(
            &mut c,
            "SELECT driver_id FROM drivers WHERE platform = NULL",
            &p,
        )
        .unwrap()
        .rows()
        .unwrap();
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn sample_code_1_matching_semantics() {
        let mut c = setup();
        let mut p = Params::new();
        p.insert("client_api_name".into(), Value::str("JDBC"));
        p.insert("client_platform".into(), Value::str("linux-x86_64"));
        let rs = run(
            &mut c,
            "SELECT driver_id FROM drivers \
             WHERE api_name LIKE $client_api_name \
             AND (platform IS NULL OR platform LIKE $client_platform) \
             ORDER BY driver_id",
            &p,
        )
        .unwrap()
        .rows()
        .unwrap();
        // Driver 1 (NULL platform = all platforms) and 2 (exact) match.
        assert_eq!(
            rs.rows,
            vec![vec![Value::Integer(1)], vec![Value::Integer(2)]]
        );
    }

    #[test]
    fn update_and_delete() {
        let mut c = setup();
        let p = Params::new();
        let n = run(
            &mut c,
            "UPDATE drivers SET version_major = version_major + 10 WHERE api_name = 'JDBC'",
            &p,
        )
        .unwrap()
        .affected()
        .unwrap();
        assert_eq!(n, 2);
        let rs = run(
            &mut c,
            "SELECT version_major FROM drivers ORDER BY driver_id",
            &p,
        )
        .unwrap()
        .rows()
        .unwrap();
        assert_eq!(
            rs.rows,
            [13, 14, 3].map(|v| vec![Value::Integer(v)]),
            "JDBC rows moved by 10, ODBC's kept"
        );
        let n = run(&mut c, "DELETE FROM drivers WHERE driver_id = 3", &p)
            .unwrap()
            .affected()
            .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn a_filter_that_pins_the_key_examines_one_row() {
        let mut c = setup();
        let mut p = Params::new();
        p.insert("id".into(), Value::Timestamp(2));
        let rows = [
            // Pinned: either operand order, literal or parameter of the
            // key's family, alone or behind conjuncts that cannot fail.
            ("SELECT * FROM drivers WHERE driver_id = 2", 1),
            ("SELECT * FROM drivers WHERE 2 = drivers.driver_id", 1),
            ("SELECT * FROM drivers WHERE driver_id = $id", 1),
            (
                "SELECT * FROM drivers WHERE driver_id = 2 AND api_name = 'ODBC'",
                1,
            ),
            (
                "SELECT * FROM drivers WHERE api_name LIKE 'J%' AND platform IS NOT NULL \
                 AND driver_id = 2",
                1,
            ),
            ("SELECT count(*) FROM drivers WHERE driver_id = 9", 0),
            // Not pinned: the scan is the fallback, never an error.
            (
                "SELECT * FROM drivers WHERE version_major + 1 > 0 AND driver_id = 2",
                3,
            ),
            (
                "SELECT * FROM drivers WHERE driver_id = 2 OR driver_id = 3",
                3,
            ),
            ("SELECT * FROM drivers WHERE NOT driver_id = 2", 3),
            ("SELECT * FROM drivers WHERE driver_id = 'two'", 3),
            ("SELECT * FROM drivers WHERE driver_id = NULL", 3),
            ("SELECT * FROM drivers WHERE driver_id = driver_id", 3),
            ("SELECT * FROM drivers WHERE driver_id >= 2", 3),
            ("SELECT * FROM drivers WHERE api_name = 'JDBC'", 3),
            ("SELECT * FROM drivers", 3),
            // DML shares the path; storing an updated row looks at the
            // holder of its key once more.
            ("UPDATE drivers SET platform = 'any' WHERE driver_id = 2", 2),
            ("DELETE FROM drivers WHERE driver_id = 2", 1),
        ];
        for (sql, want) in rows {
            let before = c.rows_examined();
            run(&mut c, sql, &p).unwrap();
            assert_eq!(c.rows_examined() - before, want, "{sql}");
        }
    }

    #[test]
    fn order_by_desc_with_nulls_last() {
        let mut c = setup();
        let p = Params::new();
        let rs = run(
            &mut c,
            "SELECT driver_id FROM drivers ORDER BY platform DESC",
            &p,
        )
        .unwrap()
        .rows()
        .unwrap();
        // windows > linux, NULL last.
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::Integer(3)],
                vec![Value::Integer(2)],
                vec![Value::Integer(1)],
            ]
        );
    }

    #[test]
    fn insert_with_column_list_defaults_null() {
        let mut c = setup();
        let p = Params::new();
        run(
            &mut c,
            "INSERT INTO drivers (driver_id, api_name) VALUES (9, 'PHP')",
            &p,
        )
        .unwrap();
        let rs = run(
            &mut c,
            "SELECT platform FROM drivers WHERE driver_id = 9",
            &p,
        )
        .unwrap()
        .rows()
        .unwrap();
        assert_eq!(rs.rows[0][0], Value::Null);
    }

    #[test]
    fn undo_log_records_mutations() {
        let mut c = setup();
        let p = Params::new();
        let mut undo = Some(Vec::new());
        let stmt = parse("DELETE FROM drivers WHERE driver_id = 1").unwrap();
        execute_statement(&mut c, &stmt, &p, 0, undo.as_mut()).unwrap();
        let log = undo.unwrap();
        assert_eq!(log.len(), 1);
        for rec in log.into_iter().rev() {
            c.apply_undo(rec);
        }
        assert_eq!(c.table("drivers").unwrap().len(), 3);
    }

    #[test]
    fn insert_or_replace_writes_over_the_row_holding_the_key() {
        let mut c = setup();
        let p = Params::new();
        let select = |c: &mut Catalog, sql: &str| run(c, sql, &p).unwrap().rows().unwrap().rows;
        let all = "SELECT driver_id, api_name, version_major FROM drivers";
        let before = select(&mut c, all);
        // Driver 2's row takes the new values in its place; driver 4 is new.
        let stmt = parse(
            "INSERT OR REPLACE INTO drivers VALUES \
             (2, 'ODBC', NULL, 5), (4, 'JDBC', NULL, 1)",
        )
        .unwrap();
        let mut undo = Some(Vec::new());
        let n = execute_statement(&mut c, &stmt, &p, 0, undo.as_mut()).unwrap();
        assert_eq!(n.affected().unwrap(), 2);
        let row = |id: i64, api: &str, major: i64| {
            vec![Value::Integer(id), Value::str(api), Value::Integer(major)]
        };
        assert_eq!(
            select(&mut c, all),
            [
                row(1, "JDBC", 3),
                row(2, "ODBC", 5),
                row(3, "ODBC", 3),
                row(4, "JDBC", 1)
            ]
        );
        let examined = c.rows_examined();
        let hit = select(&mut c, "SELECT api_name FROM drivers WHERE driver_id = 2");
        assert_eq!(hit, [[Value::str("ODBC")]]);
        assert_eq!(
            c.rows_examined() - examined,
            1,
            "the row kept its index entry"
        );
        // The undo log puts the old row back and takes the new one out.
        for rec in undo.unwrap().into_iter().rev() {
            c.apply_undo(rec);
        }
        assert_eq!(select(&mut c, all), before);
        // A value another table references is not written over.
        run(
            &mut c,
            "CREATE TABLE apis (api VARCHAR REFERENCES drivers(api_name))",
            &p,
        )
        .unwrap();
        run(&mut c, "INSERT INTO apis VALUES ('ODBC')", &p).unwrap();
        let orphaning = "INSERT OR REPLACE INTO drivers VALUES (3, 'JDBC', NULL, 3)";
        assert!(matches!(
            run(&mut c, orphaning, &p),
            Err(DbError::ForeignKey(_))
        ));
        assert_eq!(select(&mut c, all), before);
    }

    #[test]
    fn select_without_from() {
        let mut c = Catalog::new();
        let p = Params::new();
        let rs = run(&mut c, "SELECT 1 + 1, now() AS t", &p)
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(rs.columns, vec!["expr", "t"]);
        assert_eq!(rs.rows[0], vec![Value::BigInt(2), Value::Timestamp(1_000)]);
    }

    #[test]
    fn scalar_helper() {
        let mut c = setup();
        let p = Params::new();
        let rs = run(&mut c, "SELECT count(*) FROM drivers", &p)
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(rs.scalar().unwrap(), &Value::BigInt(3));
    }
}
