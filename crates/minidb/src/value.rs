//! SQL values, data types, and three-valued comparison logic.

use std::cmp::Ordering;
use std::fmt;

use bytes::Bytes;

use crate::error::{DbError, DbResult};

/// Column data types, following the subset of ANSI SQL 2003 used by the
/// paper's Table 1 and Table 2 schemas.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 32-bit-style integer (stored as `i64`).
    Integer,
    /// 64-bit integer (`BIGINT`), used for lease times in milliseconds.
    BigInt,
    /// Variable-length string (`VARCHAR`).
    Varchar,
    /// Binary large object (`BLOB`), used for driver binary code.
    Blob,
    /// Millisecond-precision timestamp.
    Timestamp,
    /// Boolean.
    Boolean,
}

impl DataType {
    /// Parses a SQL type name.
    ///
    /// # Errors
    ///
    /// [`DbError::Parse`] for unknown type names.
    pub fn parse(name: &str) -> DbResult<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "INTEGER" | "INT" => Ok(DataType::Integer),
            "BIGINT" => Ok(DataType::BigInt),
            "VARCHAR" | "TEXT" => Ok(DataType::Varchar),
            "BLOB" => Ok(DataType::Blob),
            "TIMESTAMP" => Ok(DataType::Timestamp),
            "BOOLEAN" | "BOOL" => Ok(DataType::Boolean),
            other => Err(DbError::Parse(format!("unknown type name {other:?}"))),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Integer => "INTEGER",
            DataType::BigInt => "BIGINT",
            DataType::Varchar => "VARCHAR",
            DataType::Blob => "BLOB",
            DataType::Timestamp => "TIMESTAMP",
            DataType::Boolean => "BOOLEAN",
        };
        f.write_str(s)
    }
}

/// A SQL value. `Null` is typeless, as in SQL.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// INTEGER value.
    Integer(i64),
    /// BIGINT value.
    BigInt(i64),
    /// VARCHAR value.
    Varchar(String),
    /// BLOB value. Backed by [`Bytes`] so row clones (scans, undo logs,
    /// result sets) share the allocation instead of copying it — driver
    /// binaries are the dominant blob payload and get re-read on every
    /// lease renewal.
    Blob(Bytes),
    /// TIMESTAMP value (milliseconds).
    Timestamp(i64),
    /// BOOLEAN value.
    Boolean(bool),
}

impl Value {
    /// Creates a VARCHAR value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Varchar(s.into())
    }

    /// Returns `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view over INTEGER / BIGINT / TIMESTAMP.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Integer(v) | Value::BigInt(v) | Value::Timestamp(v) => Some(*v),
            _ => None,
        }
    }

    /// String view over VARCHAR.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Varchar(s) => Some(s),
            _ => None,
        }
    }

    /// Shared handle over BLOB — clones the refcount, not the payload.
    pub fn as_blob_shared(&self) -> Option<Bytes> {
        match self {
            Value::Blob(b) => Some(b.clone()),
            _ => None,
        }
    }

    /// Boolean view over BOOLEAN.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// Checks whether this value may be stored in a column of type `ty`.
    /// NULL conforms to every type; integers conform to all numeric types.
    pub fn conforms_to(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (
                    Value::Integer(_) | Value::BigInt(_),
                    DataType::Integer | DataType::BigInt
                )
                | (
                    Value::Integer(_) | Value::BigInt(_) | Value::Timestamp(_),
                    DataType::Timestamp
                )
                | (Value::Timestamp(_), DataType::BigInt)
                | (Value::Varchar(_), DataType::Varchar)
                | (Value::Blob(_), DataType::Blob)
                | (Value::Boolean(_), DataType::Boolean)
        )
    }

    /// Coerces this value to the storage representation for column type
    /// `ty` (e.g. an integer literal inserted into a TIMESTAMP column).
    ///
    /// # Errors
    ///
    /// [`DbError::Type`] when the value does not conform to `ty`.
    pub fn coerce_to(self, ty: DataType) -> DbResult<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        match (self, ty) {
            (Value::Integer(v) | Value::BigInt(v) | Value::Timestamp(v), DataType::Integer) => {
                Ok(Value::Integer(v))
            }
            (Value::Integer(v) | Value::BigInt(v) | Value::Timestamp(v), DataType::BigInt) => {
                Ok(Value::BigInt(v))
            }
            (Value::Integer(v) | Value::BigInt(v) | Value::Timestamp(v), DataType::Timestamp) => {
                Ok(Value::Timestamp(v))
            }
            (v @ Value::Varchar(_), DataType::Varchar) => Ok(v),
            (v @ Value::Blob(_), DataType::Blob) => Ok(v),
            (v @ Value::Boolean(_), DataType::Boolean) => Ok(v),
            (v, ty) => Err(DbError::Type(format!("cannot store {v} in {ty} column"))),
        }
    }

    /// SQL equality with three-valued logic: `None` when either side is
    /// NULL.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// SQL ordering comparison with three-valued logic.
    ///
    /// Numeric types (INTEGER / BIGINT / TIMESTAMP) compare with each other;
    /// other types only with themselves. Cross-type comparisons of
    /// incompatible types yield `None` (unknown), matching the engine's
    /// permissive dynamic typing.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        match (self, other) {
            (a, b) if a.as_i64().is_some() && b.as_i64().is_some() => {
                Some(a.as_i64().cmp(&b.as_i64()))
            }
            (Value::Varchar(a), Value::Varchar(b)) => Some(a.cmp(b)),
            (Value::Blob(a), Value::Blob(b)) => Some(a.cmp(b)),
            (Value::Boolean(a), Value::Boolean(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// SQL `LIKE` pattern matching (`%` = any run, `_` = any single char),
    /// case-sensitive, three-valued: `None` when either side is NULL.
    pub fn sql_like(&self, pattern: &Value) -> Option<bool> {
        match (self, pattern) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Varchar(s), Value::Varchar(p)) => Some(like_match(s, p)),
            _ => Some(false),
        }
    }
}

/// SQL LIKE over `%` and `_` wildcards. ASCII texts match byte by byte;
/// anything else matches by `char`, so `_` still takes one whole
/// non-ASCII character.
pub fn like_match(s: &str, pattern: &str) -> bool {
    if s.is_ascii() && pattern.is_ascii() {
        return like_units(s.as_bytes(), pattern.as_bytes(), b'%', b'_');
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    like_units(&s, &p, '%', '_')
}

/// Iterative two-pointer matcher with backtracking over the last `run`
/// (`%`); `one` (`_`) matches any single unit.
fn like_units<T: Copy + PartialEq>(s: &[T], p: &[T], run: T, one: T) -> bool {
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s) = (usize::MAX, 0usize);
    while let Some(&c) = s.get(si) {
        match p.get(pi) {
            Some(&u) if u == one || u == c => {
                si += 1;
                pi += 1;
            }
            Some(&u) if u == run => {
                star_p = pi;
                star_s = si;
                pi += 1;
            }
            _ if star_p != usize::MAX => {
                pi = star_p + 1;
                star_s += 1;
                si = star_s;
            }
            _ => return false,
        }
    }
    p.iter().skip(pi).all(|&u| u == run)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Integer(v) | Value::BigInt(v) => write!(f, "{v}"),
            Value::Timestamp(v) => write!(f, "ts:{v}"),
            Value::Varchar(s) => write!(f, "'{s}'"),
            Value::Blob(b) => write!(f, "x'{} bytes'", b.len()),
            Value::Boolean(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::BigInt(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Integer(v as i64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Varchar(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Varchar(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Blob(Bytes::from(v))
    }
}

impl From<Bytes> for Value {
    fn from(v: Bytes) -> Self {
        Value::Blob(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names_parse() {
        assert_eq!(DataType::parse("integer").unwrap(), DataType::Integer);
        assert_eq!(DataType::parse("BIGINT").unwrap(), DataType::BigInt);
        assert_eq!(DataType::parse("VarChar").unwrap(), DataType::Varchar);
        assert!(DataType::parse("FLOAT").is_err());
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Integer(1)), None);
        assert_eq!(Value::Integer(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_like(&Value::str("%")), None);
    }

    #[test]
    fn numeric_types_compare_across_widths() {
        assert_eq!(
            Value::Integer(5).sql_cmp(&Value::BigInt(5)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Timestamp(10).sql_cmp(&Value::Integer(3)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn like_wildcards() {
        assert!(like_match("JDBC", "JDBC"));
        assert!(like_match("JDBC", "J%"));
        assert!(like_match("linux-x86_64", "linux%"));
        assert!(like_match("abc", "a_c"));
        assert!(like_match("", "%"));
        assert!(!like_match("abc", "a_"));
        assert!(!like_match("abc", "b%"));
        assert!(like_match("a%c", "a%c")); // literal traversal via wildcard
        assert!(like_match("anything", "%%"));
        assert!(like_match("windows-i586", "%i586"));
    }

    /// The char-only matcher `like_match` used before it learned bytes.
    fn like_match_chars(s: &str, pattern: &str) -> bool {
        let s: Vec<char> = s.chars().collect();
        let p: Vec<char> = pattern.chars().collect();
        let (mut si, mut pi) = (0usize, 0usize);
        let (mut star_p, mut star_s) = (usize::MAX, 0usize);
        while si < s.len() {
            if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
                si += 1;
                pi += 1;
            } else if pi < p.len() && p[pi] == '%' {
                star_p = pi;
                star_s = si;
                pi += 1;
            } else if star_p != usize::MAX {
                pi = star_p + 1;
                star_s += 1;
                si = star_s;
            } else {
                return false;
            }
        }
        while pi < p.len() && p[pi] == '%' {
            pi += 1;
        }
        pi == p.len()
    }

    /// `text` plus every text one char longer (each of `extra` inserted
    /// at each char boundary) or one char shorter.
    fn neighbours(text: &str, extra: &[char]) -> Vec<String> {
        let chars: Vec<char> = text.chars().collect();
        let mut out = vec![text.to_string()];
        for i in 0..=chars.len() {
            for &c in extra {
                let mut v = chars.clone();
                v.insert(i, c);
                out.push(v.into_iter().collect());
            }
            if i < chars.len() {
                let mut v = chars.clone();
                v.remove(i);
                out.push(v.into_iter().collect());
            }
        }
        out
    }

    #[test]
    fn like_agrees_with_the_char_matcher() {
        // Sample code 1/2 operands (API names, platforms, users, hosts,
        // formats), wildcard edge cases, and non-ASCII texts where `_`
        // must take a whole char.
        let corpus = [
            "RDBC",
            "JDBC",
            "ODBC",
            "R%",
            "linux-x86_64",
            "linux%",
            "%x86%",
            "windows-i586",
            "%i586",
            "admin",
            "adm_n",
            "10.0.0.%",
            "10.0.0.17",
            "app1",
            "app_",
            "orders",
            "djar",
            "%",
            "%%",
            "_",
            "__",
            "%_",
            "_%",
            "%_%",
            "a%c",
            "a_c",
            "",
            "é",
            "_é_",
            "caf%é",
            "中文",
            "中_",
            "%中%",
            "a\u{a0}b",
            "a_b",
            "\u{a0}%",
        ];
        let extra = ['%', '_', 'a', 'é', '中', '\u{a0}'];
        let mut matched = 0;
        for text in corpus {
            for mutant in neighbours(text, &extra) {
                for other in corpus {
                    for (s, p) in [(mutant.as_str(), other), (other, mutant.as_str())] {
                        let want = like_match_chars(s, p);
                        assert_eq!(like_match(s, p), want, "{s:?} LIKE {p:?}");
                        matched += usize::from(want);
                    }
                }
            }
        }
        assert!(matched > 1_000, "the corpus exercises matches: {matched}");
    }

    #[test]
    fn like_underscore_takes_one_whole_char() {
        assert!(like_match("é", "_"));
        assert!(like_match("中文", "__"));
        assert!(!like_match("中文", "_"));
        assert!(like_match("a\u{a0}b", "a_b"));
    }

    #[test]
    fn coercions() {
        assert_eq!(
            Value::Integer(5).coerce_to(DataType::Timestamp).unwrap(),
            Value::Timestamp(5)
        );
        assert_eq!(
            Value::BigInt(5).coerce_to(DataType::Integer).unwrap(),
            Value::Integer(5)
        );
        assert!(Value::str("x").coerce_to(DataType::Integer).is_err());
        assert_eq!(Value::Null.coerce_to(DataType::Blob).unwrap(), Value::Null);
    }

    #[test]
    fn conforms_to_matrix() {
        assert!(Value::Null.conforms_to(DataType::Blob));
        assert!(Value::Integer(1).conforms_to(DataType::BigInt));
        assert!(Value::Timestamp(1).conforms_to(DataType::BigInt));
        assert!(!Value::str("x").conforms_to(DataType::Integer));
        assert!(!Value::Blob(vec![].into()).conforms_to(DataType::Varchar));
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(42i64), Value::BigInt(42));
        assert_eq!(Value::from(42i32), Value::Integer(42));
        assert_eq!(Value::from("x"), Value::Varchar("x".into()));
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(1i32)), Value::Integer(1));
    }
}
