//! The report kit every scenario is written against: a run size, an
//! ordered JSON value, a gate collector, and the chunk-size summary the
//! cdc scenario records per edit.

use std::fmt;

/// How big a scenario runs. Always a function argument: the bench main
/// passes `Full`, the smoke test passes `Smoke`, nothing reads it from
/// the environment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// Shrunk fleets and images; gates still hold. Never written to disk.
    Smoke,
    /// The size recorded in the committed `BENCH_*.json`.
    Full,
}

impl Size {
    /// Picks the value for this size.
    pub fn pick<T>(self, smoke: T, full: T) -> T {
        match self {
            Size::Smoke => smoke,
            Size::Full => full,
        }
    }
}

/// A JSON value whose objects keep insertion order and whose floats carry
/// their own precision, so rendering is a pure function of the value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Int(u64),
    /// A float printed with exactly this many decimals.
    Float(f64, usize),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object in insertion order.
    Object(Object),
}

macro_rules! value_from {
    ($($t:ty => $make:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                $make(v)
            }
        }
    )*};
}

value_from! {
    bool => Value::Bool,
    u64 => Value::Int,
    usize => |v| Value::Int(v as u64),
    &str => |v: &str| Value::Str(v.to_string()),
    String => Value::Str,
    Object => Value::Object,
}

impl fmt::Display for Value {
    /// Compact single-line rendering (`{"k": 1, "a": [1, 2]}`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x, decimals) => write!(f, "{x:.decimals$}"),
            Value::Str(s) => f.write_str(&quoted(s)),
            Value::Array(items) => {
                let items: Vec<String> = items.iter().map(Value::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
            Value::Object(Object(fields)) => {
                let fields = fields.iter().map(|(k, v)| format!("{}: {v}", quoted(k)));
                let fields: Vec<String> = fields.collect();
                write!(f, "{{{}}}", fields.join(", "))
            }
        }
    }
}

/// `s` as a JSON string literal.
fn quoted(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out + "\""
}

/// An insertion-ordered JSON object.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Object(Vec<(String, Value)>);

impl Object {
    /// Appends a field, builder style.
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.0.push((key.to_string(), value.into()));
        self
    }
}

/// Collects failed gates; a scenario states each promise once as a
/// [`Gates::require`] and both callers decide what a failure means.
#[derive(Clone, Debug, Default)]
pub struct Gates(Vec<String>);

impl Gates {
    /// Records `msg` as a failure unless `cond` holds.
    pub fn require(&mut self, cond: bool, msg: impl Into<String>) {
        if !cond {
            self.0.push(msg.into());
        }
    }

    /// Messages of every gate that failed, in evaluation order.
    pub fn failures(&self) -> &[String] {
        &self.0
    }
}

/// One scenario's outcome: the ordered record that becomes
/// `BENCH_<name>.json` (and the console output) plus its gates.
#[derive(Clone, Debug)]
pub struct Report {
    /// Scenario name; the report's file is `BENCH_<name>.json`.
    pub name: &'static str,
    fields: Object,
    /// The scenario's gates.
    pub gates: Gates,
}

impl Report {
    /// A report whose first field is `"bench": name`.
    pub fn new(name: &'static str) -> Self {
        Report {
            name,
            fields: Object::default().with("bench", name),
            gates: Gates::default(),
        }
    }

    /// Appends one top-level field.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) {
        self.fields.0.push((key.to_string(), value.into()));
    }

    /// The file form: one top-level field per line, arrays of objects one
    /// element per line, everything deeper compact.
    pub fn to_json(&self) -> String {
        let Object(fields) = &self.fields;
        let fields = fields.iter().map(|(key, value)| match value {
            Value::Array(rows) if matches!(rows.first(), Some(Value::Object(_))) => {
                let rows: Vec<String> = rows.iter().map(|r| format!("    {r}")).collect();
                format!("  {}: [\n{}\n  ]", quoted(key), rows.join(",\n"))
            }
            other => format!("  {}: {other}", quoted(key)),
        });
        let fields: Vec<String> = fields.collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }
}

/// Chunk-size distribution summary of one cut-point sequence, recorded
/// per edit by the cdc scenario, whose gate is that normalization
/// tightens `stddev` on every edit.
#[derive(Debug)]
pub struct SizeStats {
    /// Number of chunks.
    pub count: usize,
    /// Smallest chunk (the tail chunk may undercut the CDC `min`).
    pub min: usize,
    /// Median chunk size.
    pub p50: usize,
    /// 99th-percentile chunk size.
    pub p99: usize,
    /// Largest chunk.
    pub max: usize,
    /// Mean chunk size.
    pub mean: f64,
    /// Population standard deviation — the headline tightness metric.
    pub stddev: f64,
}

impl SizeStats {
    /// Computes the distribution from exclusive chunk end offsets (as
    /// produced by `drivolution_core::chunk::cut_points`). Panics on an
    /// empty sequence: every bench image is non-empty.
    pub fn of_cuts(cuts: &[usize]) -> SizeStats {
        let mut sizes = Vec::with_capacity(cuts.len());
        let mut start = 0;
        for &end in cuts {
            sizes.push(end - start);
            start = end;
        }
        sizes.sort_unstable();
        let count = sizes.len();
        let mean = sizes.iter().sum::<usize>() as f64 / count as f64;
        let var = sizes
            .iter()
            .map(|&s| (s as f64 - mean) * (s as f64 - mean))
            .sum::<f64>()
            / count as f64;
        SizeStats {
            count,
            min: sizes[0],
            p50: sizes[count / 2],
            p99: sizes[(count * 99) / 100],
            max: sizes[count - 1],
            mean,
            stddev: var.sqrt(),
        }
    }
}

impl From<&SizeStats> for Value {
    fn from(s: &SizeStats) -> Self {
        Object::default()
            .with("chunks", s.count)
            .with("min", s.min)
            .with("p50", s.p50)
            .with("p99", s.p99)
            .with("max", s.max)
            .with("mean", Value::Float(s.mean, 0))
            .with("stddev", Value::Float(s.stddev, 1))
            .into()
    }
}
