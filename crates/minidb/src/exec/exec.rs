//! Statement execution against a catalog.

use std::cmp::Ordering;

use crate::error::{DbError, DbResult};
use crate::exec::expr::{is_aggregate, EvalCtx, Params};
use crate::schema::{Column, TableSchema};
use crate::sql::ast::{BinOp, ColumnDef, Expr, SelectItem, SelectStmt, Statement};
use crate::storage::{Catalog, RowId, Table, UndoRecord};
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

fn build_schema(name: &str, defs: &[ColumnDef]) -> DbResult<TableSchema> {
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
    TableSchema::new(name, cols)
}

/// Where a statement's target table lives.
#[derive(Clone, Copy)]
enum Target {
    Main,
    Temp,
}

/// Finds `table`, a session's temporary tables shadowing the catalog's.
fn resolve<'a>(
    catalog: &'a Catalog,
    temp: &'a Catalog,
    table: &str,
) -> DbResult<(Target, &'a Table)> {
    if temp.has_table(table) {
        Ok((Target::Temp, temp.table(table)?))
    } else {
        Ok((Target::Main, catalog.table(table)?))
    }
}

/// The table `resolve` found, for writing, and the undo log its
/// mutations go to (temporary tables have none).
fn resolve_mut<'a>(
    target: Target,
    catalog: &'a mut Catalog,
    temp: &'a mut Catalog,
    table: &str,
    undo: &'a mut Option<Vec<UndoRecord>>,
) -> DbResult<(&'a mut Table, Option<&'a mut Vec<UndoRecord>>)> {
    match target {
        Target::Main => Ok((catalog.table_mut(table)?, undo.as_mut())),
        Target::Temp => Ok((temp.table_mut(table)?, None)),
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
fn total(e: &Expr, schema: &TableSchema, params: &Params) -> bool {
    let atom = |e: &Expr| match e {
        Expr::Literal(_) => true,
        Expr::Column(c) => column_index(schema, c).is_some(),
        Expr::Param(p) => params.contains_key(p),
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
        Expr::InList { expr, list, .. } => atom(expr) && list.iter().all(atom),
        _ => false,
    }
}

/// The one primary-key value `filter` can be TRUE for, when its shape
/// says so: `pk = <literal | $param>` (either operand order), alone or
/// as a conjunct of `AND`s. On every row with a different key such a
/// filter evaluates to FALSE without raising an error, so skipping those
/// rows cannot change what the statement returns or which error it
/// raises. That needs the comparison itself to be decided — a NULL probe,
/// an unbound parameter or a probe outside the key's type family pins
/// nothing (`id = 'x'` is NULL, not FALSE, on every row) — and whatever
/// `AND` evaluates before it to be [`total`]. The probe comes back
/// coerced to the key column's type.
fn pinned_key(filter: &Expr, schema: &TableSchema, pk: usize, params: &Params) -> Option<Value> {
    let Expr::Binary { op, lhs, rhs } = filter else {
        return None;
    };
    match op {
        BinOp::Eq => {
            let is_key =
                |e: &Expr| matches!(e, Expr::Column(c) if column_index(schema, c) == Some(pk));
            let probe = match (is_key(lhs), is_key(rhs)) {
                (true, false) => rhs,
                (false, true) => lhs,
                _ => return None,
            };
            let probe = match &**probe {
                Expr::Literal(v) => v,
                Expr::Param(p) => params.get(p)?,
                _ => return None,
            };
            let dtype = schema.columns().get(pk)?.dtype();
            probe
                .clone()
                .coerce_to(dtype)
                .ok()
                .filter(|key| !key.is_null())
        }
        // The cheap question first: most filters pin nothing, and then
        // nobody needs to know whether `lhs` can fail.
        BinOp::And => pinned_key(lhs, schema, pk, params)
            .or_else(|| pinned_key(rhs, schema, pk, params).filter(|_| total(lhs, schema, params))),
        _ => None,
    }
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
    params: &Params,
    now_ms: i64,
    mut hit: impl FnMut(RowId, &'a Vec<Value>) -> DbResult<()>,
) -> DbResult<()> {
    let schema = t.schema();
    let key = filter
        .zip(schema.primary_key_index())
        .and_then(|(f, pk)| pinned_key(f, schema, pk, params));
    for (id, row) in t.candidates(key.as_ref()) {
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

/// Executes one data/DDL statement.
///
/// `undo` receives reversal records for mutations of main-catalog tables
/// while a transaction is open; temporary-table mutations are session-local
/// and never logged.
///
/// # Errors
///
/// Any [`DbError`] arising from resolution, validation, or evaluation.
pub fn execute_statement(
    catalog: &mut Catalog,
    temp: &mut Catalog,
    stmt: &Statement,
    params: &Params,
    now_ms: i64,
    undo: &mut Option<Vec<UndoRecord>>,
) -> DbResult<QueryResult> {
    match stmt {
        Statement::CreateTable {
            name,
            columns,
            temporary,
        } => {
            let schema = build_schema(name, columns)?;
            if *temporary {
                temp.create_table(schema)?;
            } else {
                if temp.has_table(name) {
                    return Err(DbError::TableExists(format!("{name} (temporary)")));
                }
                catalog.create_table(schema)?;
            }
            Ok(QueryResult::Affected(0))
        }
        Statement::DropTable { name, if_exists } => {
            let dropped = if temp.has_table(name) {
                temp.drop_table(name).map(|_| true)
            } else if catalog.has_table(name) {
                catalog.drop_table(name).map(|_| true)
            } else if *if_exists {
                Ok(false)
            } else {
                Err(DbError::NoSuchTable(name.to_string()))
            }?;
            Ok(QueryResult::Affected(u64::from(dropped)))
        }
        Statement::Insert {
            table,
            columns,
            rows,
        } => exec_insert(
            catalog,
            temp,
            table,
            columns.as_deref(),
            rows,
            params,
            now_ms,
            undo,
        ),
        Statement::Update {
            table,
            sets,
            filter,
        } => exec_update(
            catalog,
            temp,
            table,
            sets,
            filter.as_ref(),
            params,
            now_ms,
            undo,
        ),
        Statement::Delete { table, filter } => {
            exec_delete(catalog, temp, table, filter.as_ref(), params, now_ms, undo)
        }
        Statement::Select(s) => {
            exec_select(catalog, temp, s, params, now_ms).map(QueryResult::Rows)
        }
        other => Err(DbError::Internal(format!(
            "statement not handled by executor: {other:?}"
        ))),
    }
}

#[allow(clippy::too_many_arguments)]
fn exec_insert(
    catalog: &mut Catalog,
    temp: &mut Catalog,
    table: &str,
    columns: Option<&[String]>,
    rows: &[Vec<Expr>],
    params: &Params,
    now_ms: i64,
    undo: &mut Option<Vec<UndoRecord>>,
) -> DbResult<QueryResult> {
    let (target, t) = resolve(catalog, temp, table)?;
    let schema = t.schema();
    // Map the explicit column list (if any) to schema positions.
    let positions: Vec<usize> = match columns {
        Some(cols) => cols
            .iter()
            .map(|c| schema.col_index(c))
            .collect::<DbResult<_>>()?,
        None => (0..schema.columns().len()).collect(),
    };
    let ctx = EvalCtx::rowless(params, now_ms);
    let mut built: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
    for exprs in rows {
        if exprs.len() != positions.len() {
            return Err(DbError::Constraint(format!(
                "INSERT supplies {} values for {} columns",
                exprs.len(),
                positions.len()
            )));
        }
        let mut row = vec![Value::Null; schema.columns().len()];
        for (pos, e) in positions.iter().zip(exprs) {
            row[*pos] = ctx.eval(e)?;
        }
        built.push(row);
    }
    // Foreign-key checks only apply to main-catalog tables.
    if matches!(target, Target::Main) {
        for row in &built {
            for (col, value) in schema.columns().iter().zip(row) {
                if let Some((rt, rc)) = col.references_target() {
                    catalog.check_reference(rt, rc, value)?;
                }
            }
        }
    }
    let n = built.len() as u64;
    let (t, mut log) = resolve_mut(target, catalog, temp, table, undo)?;
    for row in built {
        let id = t.insert(row)?;
        if let Some(log) = log.as_deref_mut() {
            log.push(UndoRecord::Inserted {
                table: table.to_string(),
                id,
            });
        }
    }
    Ok(QueryResult::Affected(n))
}

#[allow(clippy::too_many_arguments)]
fn exec_update(
    catalog: &mut Catalog,
    temp: &mut Catalog,
    table: &str,
    sets: &[(String, Expr)],
    filter: Option<&Expr>,
    params: &Params,
    now_ms: i64,
    undo: &mut Option<Vec<UndoRecord>>,
) -> DbResult<QueryResult> {
    let (target, t) = resolve(catalog, temp, table)?;
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
    if matches!(target, Target::Main) {
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
    }
    let changes: Vec<(RowId, Vec<Value>)> =
        changes.into_iter().map(|(id, _, new)| (id, new)).collect();
    let n = changes.len() as u64;
    let (t, mut log) = resolve_mut(target, catalog, temp, table, undo)?;
    for (id, new) in changes {
        let old = t.update(id, new)?;
        if let Some(log) = log.as_deref_mut() {
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
    temp: &mut Catalog,
    table: &str,
    filter: Option<&Expr>,
    params: &Params,
    now_ms: i64,
    undo: &mut Option<Vec<UndoRecord>>,
) -> DbResult<QueryResult> {
    let (target, t) = resolve(catalog, temp, table)?;
    let mut doomed: Vec<(RowId, &Vec<Value>)> = Vec::new();
    for_each_match(t, filter, params, now_ms, |id, row| {
        doomed.push((id, row));
        Ok(())
    })?;
    if matches!(target, Target::Main) {
        for (_, row) in &doomed {
            for (col, value) in t.schema().columns().iter().zip(*row) {
                catalog.check_no_referents(table, col.name(), value)?;
            }
        }
    }
    let doomed: Vec<RowId> = doomed.into_iter().map(|(id, _)| id).collect();
    let n = doomed.len() as u64;
    let (t, mut log) = resolve_mut(target, catalog, temp, table, undo)?;
    for id in doomed {
        let old = t.delete(id)?;
        if let Some(log) = log.as_deref_mut() {
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

fn expr_is_aggregate(e: &Expr) -> bool {
    matches!(e, Expr::Func { name, star, .. } if *star || is_aggregate(name))
}

/// Executes a SELECT.
///
/// # Errors
///
/// Any [`DbError`] from resolution or evaluation.
pub fn exec_select(
    catalog: &Catalog,
    temp: &Catalog,
    s: &SelectStmt,
    params: &Params,
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

    let (_, t) = resolve(catalog, temp, from)?;
    let schema = t.schema();

    // Collect rows passing the filter.
    let mut base: Vec<&Vec<Value>> = Vec::new();
    for_each_match(t, s.filter.as_ref(), params, now_ms, |_, row| {
        base.push(row);
        Ok(())
    })?;

    // Aggregate query?
    let any_agg = s.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr_is_aggregate(expr),
        SelectItem::Star => false,
    });
    if any_agg {
        let mut names = Vec::new();
        let mut row = Vec::new();
        for item in &s.items {
            let SelectItem::Expr { expr, .. } = item else {
                return Err(DbError::Parse("cannot mix * with aggregates".into()));
            };
            let Expr::Func { name, args, star } = expr else {
                return Err(DbError::Parse(
                    "non-aggregate expression in aggregate query".into(),
                ));
            };
            row.push(eval_aggregate(
                name, args, *star, schema, &base, params, now_ms,
            )?);
            names.push(item_name(item, Some(schema)));
        }
        return Ok(RowSet {
            columns: names,
            rows: vec![row],
        });
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
    // With DISTINCT, LIMIT applies to the deduplicated output below.
    if let Some(limit) = s.limit {
        if !s.distinct {
            ordered.truncate(limit as usize);
        }
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
        if s.distinct && rows.contains(&out) {
            continue;
        }
        rows.push(out);
        if s.distinct && s.limit == Some(rows.len() as u64) {
            break;
        }
    }
    Ok(RowSet {
        columns: names,
        rows,
    })
}

fn eval_aggregate(
    name: &str,
    args: &[Expr],
    star: bool,
    schema: &TableSchema,
    rows: &[&Vec<Value>],
    params: &Params,
    now_ms: i64,
) -> DbResult<Value> {
    if star {
        if name != "count" {
            return Err(DbError::Type(format!("{name}(*) is not supported")));
        }
        return Ok(Value::BigInt(rows.len() as i64));
    }
    let [arg] = args else {
        return Err(DbError::Type(format!("{name}() takes one argument")));
    };
    let mut vals = Vec::new();
    for row in rows {
        let ctx = EvalCtx::for_row(schema, row, params, now_ms);
        let v = ctx.eval(arg)?;
        if !v.is_null() {
            vals.push(v);
        }
    }
    match name {
        "count" => Ok(Value::BigInt(vals.len() as i64)),
        "sum" | "avg" => {
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            let mut total: i64 = 0;
            for v in &vals {
                total =
                    total
                        .checked_add(v.as_i64().ok_or_else(|| {
                            DbError::Type(format!("{name}() over non-numeric {v}"))
                        })?)
                        .ok_or_else(|| DbError::Type("aggregate overflow".into()))?;
            }
            if name == "sum" {
                Ok(Value::BigInt(total))
            } else {
                Ok(Value::BigInt(total / vals.len() as i64))
            }
        }
        "min" | "max" => {
            let mut best: Option<Value> = None;
            for v in vals {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let take = match v.sql_cmp(&b) {
                            Some(Ordering::Less) => name == "min",
                            Some(Ordering::Greater) => name == "max",
                            _ => false,
                        };
                        if take {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
        other => Err(DbError::NoSuchFunction(format!("aggregate {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parser::parse;

    fn run(
        catalog: &mut Catalog,
        temp: &mut Catalog,
        sql: &str,
        params: &Params,
    ) -> DbResult<QueryResult> {
        let stmt = parse(sql)?;
        execute_statement(catalog, temp, &stmt, params, 1_000, &mut None)
    }

    fn setup() -> (Catalog, Catalog) {
        let mut c = Catalog::new();
        let mut t = Catalog::new();
        let p = Params::new();
        run(
            &mut c,
            &mut t,
            "CREATE TABLE drivers (driver_id INTEGER PRIMARY KEY, api_name VARCHAR NOT NULL, \
             platform VARCHAR, version_major INTEGER)",
            &p,
        )
        .unwrap();
        run(
            &mut c,
            &mut t,
            "INSERT INTO drivers VALUES \
             (1, 'JDBC', NULL, 3), \
             (2, 'JDBC', 'linux-x86_64', 4), \
             (3, 'ODBC', 'windows-i586', 3)",
            &p,
        )
        .unwrap();
        (c, t)
    }

    #[test]
    fn insert_select_roundtrip() {
        let (mut c, mut t) = setup();
        let p = Params::new();
        let rs = run(&mut c, &mut t, "SELECT * FROM drivers", &p)
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.columns[1], "api_name");
    }

    #[test]
    fn where_with_null_semantics() {
        let (mut c, mut t) = setup();
        let p = Params::new();
        // platform IS NULL matches driver 1 only; a plain comparison with
        // NULL matches nothing.
        let rs = run(
            &mut c,
            &mut t,
            "SELECT driver_id FROM drivers WHERE platform IS NULL",
            &p,
        )
        .unwrap()
        .rows()
        .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Integer(1)]]);
        let rs = run(
            &mut c,
            &mut t,
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
        let (mut c, mut t) = setup();
        let mut p = Params::new();
        p.insert("client_api_name".into(), Value::str("JDBC"));
        p.insert("client_platform".into(), Value::str("linux-x86_64"));
        let rs = run(
            &mut c,
            &mut t,
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
        let (mut c, mut t) = setup();
        let p = Params::new();
        let n = run(
            &mut c,
            &mut t,
            "UPDATE drivers SET version_major = version_major + 10 WHERE api_name = 'JDBC'",
            &p,
        )
        .unwrap()
        .affected()
        .unwrap();
        assert_eq!(n, 2);
        let rs = run(&mut c, &mut t, "SELECT sum(version_major) FROM drivers", &p)
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::BigInt(3 + 13 + 14));
        let n = run(
            &mut c,
            &mut t,
            "DELETE FROM drivers WHERE driver_id = 3",
            &p,
        )
        .unwrap()
        .affected()
        .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn a_filter_that_pins_the_key_examines_one_row() {
        let (mut c, mut t) = setup();
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
            run(&mut c, &mut t, sql, &p).unwrap();
            assert_eq!(c.rows_examined() - before, want, "{sql}");
        }
    }

    #[test]
    fn aggregates() {
        let (mut c, mut t) = setup();
        let p = Params::new();
        let rs = run(
            &mut c,
            &mut t,
            "SELECT count(*), count(platform), min(version_major), max(version_major), avg(version_major) FROM drivers",
            &p,
        )
        .unwrap()
        .rows()
        .unwrap();
        assert_eq!(
            rs.rows[0],
            vec![
                Value::BigInt(3),
                Value::BigInt(2), // NULL platform not counted
                Value::Integer(3),
                Value::Integer(4),
                Value::BigInt(3),
            ]
        );
    }

    #[test]
    fn aggregates_on_empty_set() {
        let (mut c, mut t) = setup();
        let p = Params::new();
        let rs = run(
            &mut c,
            &mut t,
            "SELECT count(*), sum(version_major), min(version_major) FROM drivers WHERE driver_id > 100",
            &p,
        )
        .unwrap()
        .rows()
        .unwrap();
        assert_eq!(rs.rows[0], vec![Value::BigInt(0), Value::Null, Value::Null]);
    }

    #[test]
    fn order_by_desc_with_nulls_last() {
        let (mut c, mut t) = setup();
        let p = Params::new();
        let rs = run(
            &mut c,
            &mut t,
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
    fn select_distinct_collapses_duplicates() {
        let (mut c, mut t) = setup();
        let p = Params::new();
        let rs = run(
            &mut c,
            &mut t,
            "SELECT DISTINCT api_name FROM drivers ORDER BY driver_id",
            &p,
        )
        .unwrap()
        .rows()
        .unwrap();
        assert_eq!(
            rs.rows,
            vec![vec![Value::str("JDBC")], vec![Value::str("ODBC")]]
        );
        // Without DISTINCT, all three rows come back.
        let rs = run(&mut c, &mut t, "SELECT api_name FROM drivers", &p)
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
        // LIMIT applies after deduplication: rows are (JDBC, JDBC, ODBC),
        // so DISTINCT … LIMIT 2 must yield both distinct names.
        let rs = run(
            &mut c,
            &mut t,
            "SELECT DISTINCT api_name FROM drivers ORDER BY driver_id LIMIT 2",
            &p,
        )
        .unwrap()
        .rows()
        .unwrap();
        assert_eq!(
            rs.rows,
            vec![vec![Value::str("JDBC")], vec![Value::str("ODBC")]]
        );
    }

    #[test]
    fn limit_truncates() {
        let (mut c, mut t) = setup();
        let p = Params::new();
        let rs = run(
            &mut c,
            &mut t,
            "SELECT driver_id FROM drivers ORDER BY driver_id LIMIT 1",
            &p,
        )
        .unwrap()
        .rows()
        .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Integer(1)]]);
    }

    #[test]
    fn temp_tables_shadow_and_stay_private() {
        let (mut c, mut t) = setup();
        let p = Params::new();
        run(
            &mut c,
            &mut t,
            "CREATE TEMPORARY TABLE drivers (x INTEGER)",
            &p,
        )
        .unwrap();
        run(&mut c, &mut t, "INSERT INTO drivers VALUES (42)", &p).unwrap();
        let rs = run(&mut c, &mut t, "SELECT * FROM drivers", &p)
            .unwrap()
            .rows()
            .unwrap();
        // The temp table shadows the real one within this session.
        assert_eq!(rs.columns, vec!["x"]);
        assert_eq!(rs.rows.len(), 1);
        // Dropping the temp table reveals the base table again.
        run(&mut c, &mut t, "DROP TABLE drivers", &p).unwrap();
        let rs = run(&mut c, &mut t, "SELECT count(*) FROM drivers", &p)
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::BigInt(3));
    }

    #[test]
    fn insert_with_column_list_defaults_null() {
        let (mut c, mut t) = setup();
        let p = Params::new();
        run(
            &mut c,
            &mut t,
            "INSERT INTO drivers (driver_id, api_name) VALUES (9, 'PHP')",
            &p,
        )
        .unwrap();
        let rs = run(
            &mut c,
            &mut t,
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
        let (mut c, mut t) = setup();
        let p = Params::new();
        let mut undo = Some(Vec::new());
        let stmt = parse("DELETE FROM drivers WHERE driver_id = 1").unwrap();
        execute_statement(&mut c, &mut t, &stmt, &p, 0, &mut undo).unwrap();
        let log = undo.unwrap();
        assert_eq!(log.len(), 1);
        for rec in log.into_iter().rev() {
            c.apply_undo(rec);
        }
        assert_eq!(c.table("drivers").unwrap().len(), 3);
    }

    #[test]
    fn select_without_from() {
        let mut c = Catalog::new();
        let mut t = Catalog::new();
        let p = Params::new();
        let rs = run(&mut c, &mut t, "SELECT 1 + 1, now() AS t", &p)
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(rs.columns, vec!["expr", "t"]);
        assert_eq!(rs.rows[0], vec![Value::BigInt(2), Value::Timestamp(1_000)]);
    }

    #[test]
    fn scalar_helper() {
        let (mut c, mut t) = setup();
        let p = Params::new();
        let rs = run(&mut c, &mut t, "SELECT count(*) FROM drivers", &p)
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(rs.scalar().unwrap(), &Value::BigInt(3));
    }
}
