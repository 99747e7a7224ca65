//! Expression evaluation with SQL three-valued logic.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;

use crate::error::{DbError, DbResult};
use crate::schema::TableSchema;
use crate::sql::ast::{BinOp, Expr};
use crate::value::Value;

/// Statement parameters: named (`$name`) and positional (`?` → "1", "2", …).
pub type Params = HashMap<String, Value>;

/// Builds a [`Params`] map from positional values.
///
/// # Examples
///
/// ```
/// use minidb::{positional, Value};
///
/// let p = positional(vec![Value::from(1), Value::from("x")]);
/// assert_eq!(p.get("1"), Some(&Value::from(1)));
/// assert_eq!(p.get("2"), Some(&Value::from("x")));
/// ```
pub fn positional(values: Vec<Value>) -> Params {
    values
        .into_iter()
        .enumerate()
        .map(|(i, v)| ((i + 1).to_string(), v))
        .collect()
}

/// Evaluation context: the current row (if any), bound parameters, and the
/// statement timestamp for `now()`.
#[derive(Debug)]
pub struct EvalCtx<'a> {
    schema: Option<&'a TableSchema>,
    row: Option<&'a [Value]>,
    params: &'a Params,
    now_ms: i64,
}

impl<'a> EvalCtx<'a> {
    /// Context for row-free evaluation (`SELECT 1`, INSERT values).
    pub fn rowless(params: &'a Params, now_ms: i64) -> Self {
        EvalCtx {
            schema: None,
            row: None,
            params,
            now_ms,
        }
    }

    /// Context bound to one row of a table.
    pub fn for_row(
        schema: &'a TableSchema,
        row: &'a [Value],
        params: &'a Params,
        now_ms: i64,
    ) -> Self {
        EvalCtx {
            schema: Some(schema),
            row: Some(row),
            params,
            now_ms,
        }
    }

    fn column(&self, name: &str) -> DbResult<&'a Value> {
        let (Some(schema), Some(row)) = (self.schema, self.row) else {
            return Err(DbError::NoSuchColumn(format!("{name} (no table in scope)")));
        };
        // Qualified references resolve by their last segment.
        let base = name.rsplit_once('.').map_or(name, |(_, base)| base);
        let idx = schema.col_index(base)?;
        Ok(&row[idx])
    }

    /// Evaluates an operand of a predicate: a literal, column or
    /// parameter is borrowed, anything else evaluated.
    fn operand<'e>(&'e self, expr: &'e Expr) -> DbResult<Cow<'e, Value>> {
        Ok(match expr {
            Expr::Literal(v) => Cow::Borrowed(v),
            Expr::Column(name) => Cow::Borrowed(self.column(name)?),
            Expr::Param(p) => Cow::Borrowed(
                self.params
                    .get(p)
                    .ok_or_else(|| DbError::UnboundParam(format!("${p}")))?,
            ),
            other => Cow::Owned(self.eval(other)?),
        })
    }

    /// Evaluates an expression to a [`Value`].
    ///
    /// # Errors
    ///
    /// [`DbError::Type`], [`DbError::UnboundParam`],
    /// [`DbError::NoSuchColumn`], or [`DbError::NoSuchFunction`].
    pub fn eval(&self, expr: &Expr) -> DbResult<Value> {
        match expr {
            Expr::Literal(_) | Expr::Column(_) | Expr::Param(_) => {
                self.operand(expr).map(Cow::into_owned)
            }
            Expr::Not(e) => Ok(truth_not(self.eval_bool(e)?)),
            Expr::Neg(e) => {
                let v = self.eval(e)?;
                match v.as_i64() {
                    Some(n) => Ok(Value::BigInt(-n)),
                    None if v.is_null() => Ok(Value::Null),
                    None => Err(DbError::Type(format!("cannot negate {v}"))),
                }
            }
            Expr::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs),
            Expr::IsNull { expr, negated } => {
                let v = self.operand(expr)?;
                Ok(Value::Boolean(v.is_null() != *negated))
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = self.operand(expr)?;
                let p = self.operand(pattern)?;
                Ok(match v.sql_like(&p) {
                    None => Value::Null,
                    Some(b) => Value::Boolean(b != *negated),
                })
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = self.operand(expr)?;
                let lo = self.operand(low)?;
                let hi = self.operand(high)?;
                let ge_lo = v.sql_cmp(&lo).map(|o| o != std::cmp::Ordering::Less);
                let le_hi = v.sql_cmp(&hi).map(|o| o != std::cmp::Ordering::Greater);
                Ok(match truth_and(opt_bool(ge_lo), opt_bool(le_hi)) {
                    Value::Boolean(b) => Value::Boolean(b != *negated),
                    other => other,
                })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = self.operand(expr)?;
                let mut saw_null = false;
                let mut found = false;
                for item in list {
                    let iv = self.operand(item)?;
                    match v.sql_eq(&iv) {
                        Some(true) => {
                            found = true;
                            break;
                        }
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                Ok(if found {
                    Value::Boolean(!*negated)
                } else if saw_null {
                    Value::Null
                } else {
                    Value::Boolean(*negated)
                })
            }
            Expr::Func { name, args, star } => self.eval_func(name, args, *star),
        }
    }

    /// Evaluates an expression as a predicate: `Some(bool)` or `None` for
    /// SQL NULL.
    ///
    /// # Errors
    ///
    /// As for [`EvalCtx::eval`]; non-boolean non-null results are type
    /// errors.
    pub fn eval_bool(&self, expr: &Expr) -> DbResult<Option<bool>> {
        match self.eval(expr)? {
            Value::Null => Ok(None),
            Value::Boolean(b) => Ok(Some(b)),
            other => Err(DbError::Type(format!("expected boolean, got {other}"))),
        }
    }

    fn eval_binary(&self, op: BinOp, lhs: &Expr, rhs: &Expr) -> DbResult<Value> {
        match op {
            BinOp::And => {
                // SQL 3VL with short-circuit: FALSE AND x = FALSE.
                let l = self.eval_bool(lhs)?;
                if l == Some(false) {
                    return Ok(Value::Boolean(false));
                }
                let r = self.eval_bool(rhs)?;
                Ok(truth_and(opt_bool(l), opt_bool(r)))
            }
            BinOp::Or => {
                let l = self.eval_bool(lhs)?;
                if l == Some(true) {
                    return Ok(Value::Boolean(true));
                }
                let r = self.eval_bool(rhs)?;
                Ok(truth_or(opt_bool(l), opt_bool(r)))
            }
            BinOp::Eq => self.compare(lhs, rhs, Ordering::is_eq),
            BinOp::Ne => self.compare(lhs, rhs, Ordering::is_ne),
            BinOp::Lt => self.compare(lhs, rhs, Ordering::is_lt),
            BinOp::Gt => self.compare(lhs, rhs, Ordering::is_gt),
            BinOp::Le => self.compare(lhs, rhs, Ordering::is_le),
            BinOp::Ge => self.compare(lhs, rhs, Ordering::is_ge),
            BinOp::Add => self.arith(lhs, rhs, |a, b| Ok(a.checked_add(b))),
            BinOp::Sub => self.arith(lhs, rhs, |a, b| Ok(a.checked_sub(b))),
            BinOp::Mul => self.arith(lhs, rhs, |a, b| Ok(a.checked_mul(b))),
            BinOp::Div => self.arith(lhs, rhs, |a, b| match b {
                0 => Err(DbError::Type("division by zero".into())),
                _ => Ok(a.checked_div(b)),
            }),
        }
    }

    /// A comparison: NULL when either side is, else whether `holds` of
    /// their SQL ordering.
    fn compare(&self, lhs: &Expr, rhs: &Expr, holds: impl Fn(Ordering) -> bool) -> DbResult<Value> {
        let (l, r) = (self.operand(lhs)?, self.operand(rhs)?);
        Ok(l.sql_cmp(&r)
            .map_or(Value::Null, |o| Value::Boolean(holds(o))))
    }

    /// Integer arithmetic: NULL when either side is, a type error on
    /// non-integers and on overflow (`op` returning `None`).
    fn arith(
        &self,
        lhs: &Expr,
        rhs: &Expr,
        op: impl Fn(i64, i64) -> DbResult<Option<i64>>,
    ) -> DbResult<Value> {
        let (l, r) = (self.eval(lhs)?, self.eval(rhs)?);
        if l.is_null() || r.is_null() {
            return Ok(Value::Null);
        }
        let (Some(a), Some(b)) = (l.as_i64(), r.as_i64()) else {
            return Err(DbError::Type(format!("arithmetic on {l} and {r}")));
        };
        op(a, b)?
            .map(Value::BigInt)
            .ok_or_else(|| DbError::Type("integer overflow".into()))
    }

    fn eval_func(&self, name: &str, args: &[Expr], star: bool) -> DbResult<Value> {
        if star || is_aggregate(name) {
            return Err(DbError::Type(format!(
                "aggregate {name} not allowed in this context"
            )));
        }
        let vals: Vec<Value> = args.iter().map(|a| self.eval(a)).collect::<DbResult<_>>()?;
        match name {
            "now" | "current_timestamp" => {
                if !vals.is_empty() {
                    return Err(DbError::Type("now() takes no arguments".into()));
                }
                Ok(Value::Timestamp(self.now_ms))
            }
            "lower" | "upper" => {
                let [v] = vals.as_slice() else {
                    return Err(DbError::Type(format!("{name}() takes one argument")));
                };
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Varchar(s) => Ok(Value::Varchar(if name == "lower" {
                        s.to_lowercase()
                    } else {
                        s.to_uppercase()
                    })),
                    other => Err(DbError::Type(format!("{name}() on {other}"))),
                }
            }
            "length" => {
                let [v] = vals.as_slice() else {
                    return Err(DbError::Type("length() takes one argument".into()));
                };
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Varchar(s) => Ok(Value::BigInt(s.chars().count() as i64)),
                    Value::Blob(b) => Ok(Value::BigInt(b.len() as i64)),
                    other => Err(DbError::Type(format!("length() on {other}"))),
                }
            }
            "coalesce" => {
                for v in vals {
                    if !v.is_null() {
                        return Ok(v);
                    }
                }
                Ok(Value::Null)
            }
            "abs" => {
                let [v] = vals.as_slice() else {
                    return Err(DbError::Type("abs() takes one argument".into()));
                };
                match v {
                    Value::Null => Ok(Value::Null),
                    v => v
                        .as_i64()
                        .map(|n| Value::BigInt(n.abs()))
                        .ok_or_else(|| DbError::Type(format!("abs() on {v}"))),
                }
            }
            other => Err(DbError::NoSuchFunction(other.to_string())),
        }
    }
}

/// Whether `name` is an aggregate function handled by the executor.
pub fn is_aggregate(name: &str) -> bool {
    matches!(name, "count" | "sum" | "min" | "max" | "avg")
}

fn opt_bool(b: Option<bool>) -> Value {
    match b {
        Some(b) => Value::Boolean(b),
        None => Value::Null,
    }
}

fn truth_not(v: Option<bool>) -> Value {
    match v {
        Some(b) => Value::Boolean(!b),
        None => Value::Null,
    }
}

fn truth_and(l: Value, r: Value) -> Value {
    match (l.as_bool(), r.as_bool()) {
        (Some(false), _) | (_, Some(false)) => Value::Boolean(false),
        (Some(true), Some(true)) => Value::Boolean(true),
        _ => Value::Null,
    }
}

fn truth_or(l: Value, r: Value) -> Value {
    match (l.as_bool(), r.as_bool()) {
        (Some(true), _) | (_, Some(true)) => Value::Boolean(true),
        (Some(false), Some(false)) => Value::Boolean(false),
        _ => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::{SelectItem, Statement};
    use crate::sql::parser::parse;

    fn eval_scalar(sql: &str, params: &Params) -> DbResult<Value> {
        let Statement::Select(s) = parse(&format!("SELECT {sql}"))? else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        EvalCtx::rowless(params, 1_000).eval(expr)
    }

    #[test]
    fn arithmetic_and_precedence() {
        let p = Params::new();
        assert_eq!(eval_scalar("1 + 2 * 3", &p).unwrap(), Value::BigInt(7));
        assert_eq!(eval_scalar("-(2 - 5)", &p).unwrap(), Value::BigInt(3));
        assert!(eval_scalar("1 / 0", &p).is_err());
        assert_eq!(eval_scalar("1 + NULL", &p).unwrap(), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        let p = Params::new();
        assert_eq!(eval_scalar("NULL AND TRUE", &p).unwrap(), Value::Null);
        assert_eq!(
            eval_scalar("NULL AND FALSE", &p).unwrap(),
            Value::Boolean(false)
        );
        assert_eq!(
            eval_scalar("NULL OR TRUE", &p).unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(eval_scalar("NOT NULL", &p).unwrap(), Value::Null);
        assert_eq!(eval_scalar("NULL = NULL", &p).unwrap(), Value::Null);
        assert_eq!(
            eval_scalar("NULL IS NULL", &p).unwrap(),
            Value::Boolean(true)
        );
    }

    #[test]
    fn short_circuit_avoids_rhs_errors() {
        let p = Params::new();
        // RHS would be an unbound-param error, but FALSE AND short-circuits.
        assert_eq!(
            eval_scalar("FALSE AND $missing = 1", &p).unwrap(),
            Value::Boolean(false)
        );
        assert_eq!(
            eval_scalar("TRUE OR $missing = 1", &p).unwrap(),
            Value::Boolean(true)
        );
    }

    #[test]
    fn like_and_between_and_in() {
        let p = Params::new();
        assert_eq!(
            eval_scalar("'JDBC' LIKE 'J%'", &p).unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            eval_scalar("'JDBC' NOT LIKE 'O%'", &p).unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            eval_scalar("5 BETWEEN 1 AND 10", &p).unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            eval_scalar("5 NOT BETWEEN 1 AND 10", &p).unwrap(),
            Value::Boolean(false)
        );
        assert_eq!(
            eval_scalar("NULL BETWEEN 1 AND 10", &p).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_scalar("2 IN (1, 2, 3)", &p).unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(eval_scalar("4 IN (1, NULL)", &p).unwrap(), Value::Null);
        assert_eq!(
            eval_scalar("4 NOT IN (1, 2)", &p).unwrap(),
            Value::Boolean(true)
        );
    }

    #[test]
    fn functions() {
        let p = Params::new();
        assert_eq!(eval_scalar("now()", &p).unwrap(), Value::Timestamp(1_000));
        assert_eq!(
            eval_scalar("lower('JDBC')", &p).unwrap(),
            Value::str("jdbc")
        );
        assert_eq!(eval_scalar("length('abc')", &p).unwrap(), Value::BigInt(3));
        assert_eq!(
            eval_scalar("coalesce(NULL, NULL, 7)", &p).unwrap(),
            Value::BigInt(7)
        );
        assert_eq!(eval_scalar("abs(-3)", &p).unwrap(), Value::BigInt(3));
        assert!(eval_scalar("nosuch(1)", &p).is_err());
    }

    #[test]
    fn params_resolve_or_error() {
        let mut p = Params::new();
        p.insert("api".into(), Value::str("JDBC"));
        assert_eq!(eval_scalar("$api", &p).unwrap(), Value::str("JDBC"));
        assert!(matches!(
            eval_scalar("$missing", &p),
            Err(DbError::UnboundParam(_))
        ));
    }

    #[test]
    fn aggregates_rejected_rowless() {
        let p = Params::new();
        assert!(eval_scalar("count(*)", &p).is_err());
        assert!(eval_scalar("sum(1)", &p).is_err());
    }

    #[test]
    fn column_resolution_uses_last_segment() {
        use crate::schema::{Column, TableSchema};
        use crate::value::DataType;
        let schema =
            TableSchema::new("drivers", vec![Column::new("api_name", DataType::Varchar)]).unwrap();
        let row = vec![Value::str("JDBC")];
        let p = Params::new();
        let ctx = EvalCtx::for_row(&schema, &row, &p, 0);
        assert_eq!(
            ctx.eval(&Expr::Column("drivers.api_name".into())).unwrap(),
            Value::str("JDBC")
        );
        assert!(ctx.eval(&Expr::Column("nope".into())).is_err());
    }
}
