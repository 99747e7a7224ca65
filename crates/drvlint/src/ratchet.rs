//! Panic-path ratchet.
//!
//! Counts `unwrap()` / `expect()` / panic-family macros / slice-index
//! sites per crate in non-test code, and `with_capacity` calls sized by
//! a cast (a number, possibly off the wire, sizing an allocation:
//! `netsim::codec::get_items` is the one way to read a counted field),
//! `.len() as u8` / `.len() as u16` sites (the encode-side twin: a
//! length narrowed to a wire count wraps silently past its width, and
//! the frame then decodes to something else),
//! and `Mutex<` / `RwLock<` type sites (the simulation is
//! single-threaded, so each lock is a cost to merge away, not a need; a
//! type site is counted rather than a constructor because a lock built
//! by `#[derive(Default)]` has no constructor call to see),
//! and compares them against the checked-in `drvlint-baseline.toml`. A
//! count that *rises* fails the build; a count that falls is reported
//! so the baseline can be lowered (`cargo run -p drvlint --
//! update-baseline`). The baseline only ever goes down: raising it
//! means adding a new panic path, and that has to be visible in review
//! as a baseline diff.

use std::collections::BTreeMap;

use crate::scan::{Finding, ScannedFile};

/// Panic-site counts for one crate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// `.unwrap()` calls.
    pub unwrap: u64,
    /// `.expect(...)` calls.
    pub expect: u64,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!` sites.
    pub panic: u64,
    /// Indexing expressions (`x[i]`, `&buf[a..b]`) — each can panic on
    /// a bad bound.
    pub index: u64,
    /// `with_capacity(` calls whose argument holds ` as usize` or
    /// ` as u64`: a reservation sized by a converted number instead of
    /// by a length in hand.
    pub cast_capacity: u64,
    /// `.len() as u8` / `.len() as u16` sites: a length narrowed to a
    /// count field without a cap in front of it.
    pub cast_count: u64,
    /// `Mutex<` / `RwLock<` type sites.
    pub lock: u64,
}

impl Counts {
    fn slot(&mut self, key: &str) -> Option<&mut u64> {
        match key {
            "unwrap" => Some(&mut self.unwrap),
            "expect" => Some(&mut self.expect),
            "panic" => Some(&mut self.panic),
            "index" => Some(&mut self.index),
            "cast-capacity" => Some(&mut self.cast_capacity),
            "cast-count" => Some(&mut self.cast_count),
            "lock" => Some(&mut self.lock),
            _ => None,
        }
    }

    /// The count of category `key` (zero for an unknown key).
    pub fn get(mut self, key: &str) -> u64 {
        self.slot(key).map_or(0, |n| *n)
    }
}

/// Category keys, in baseline order.
pub const CATEGORIES: &[&str] = &[
    "unwrap",
    "expect",
    "panic",
    "index",
    "cast-capacity",
    "cast-count",
    "lock",
];

/// Crates the ratchet skips: the ratchet covers non-test, non-bench
/// code, and `bench` is bench harness code end to end.
const EXEMPT_CRATES: &[&str] = &["bench"];

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn count_token(line: &str, token: &str) -> u64 {
    // Tokens starting with an identifier character (`panic!`) need a
    // word boundary before them so `debug_panic!` never counts; tokens
    // starting with `.` sit right after a receiver by construction.
    let boundary = token
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
    let mut n = 0;
    let mut from = 0;
    while let Some(at) = line[from..].find(token) {
        let abs = from + at;
        if !boundary || abs == 0 || !is_ident(line.as_bytes()[abs - 1] as char) {
            n += 1;
        }
        from = abs + token.len();
    }
    n
}

/// Indexing sites: a `[` directly preceded by an identifier character,
/// `)` or `]` is an index (or slice) expression. Attribute brackets
/// (`#[...]`), array literals and types never match.
fn count_index_sites(line: &str) -> u64 {
    let bytes = line.as_bytes();
    let mut n = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1] as char;
        if is_ident(prev) || prev == ')' || prev == ']' {
            n += 1;
        }
    }
    n
}

/// `with_capacity(` calls on `line` whose argument (to the matching
/// parenthesis, or the end of the line) contains a cast to a size.
fn count_cast_capacity(line: &str) -> u64 {
    let sized_by_cast = |after: &&str| {
        let mut depth = 1;
        let end = after.find(|c| {
            depth += i32::from(c == '(') - i32::from(c == ')');
            depth == 0
        });
        let arg = after.get(..end.unwrap_or(after.len())).unwrap_or(after);
        arg.contains(" as usize") || arg.contains(" as u64")
    };
    line.split("with_capacity(")
        .skip(1)
        .filter(sized_by_cast)
        .count() as u64
}

/// Counts panic sites per crate over non-test lines.
pub fn count(files: &[ScannedFile]) -> BTreeMap<String, Counts> {
    let mut by_crate: BTreeMap<String, Counts> = BTreeMap::new();
    for file in files {
        if EXEMPT_CRATES.contains(&file.crate_dir.as_str()) {
            continue;
        }
        let c = by_crate.entry(file.crate_dir.clone()).or_default();
        for (idx, line) in file.masked_lines.iter().enumerate() {
            if file.in_test[idx] {
                continue;
            }
            c.unwrap += count_token(line, ".unwrap()");
            c.expect += count_token(line, ".expect(");
            c.panic += count_token(line, "panic!")
                + count_token(line, "unreachable!")
                + count_token(line, "todo!")
                + count_token(line, "unimplemented!");
            c.index += count_index_sites(line);
            c.cast_capacity += count_cast_capacity(line);
            c.cast_count += count_token(line, ".len() as u8") + count_token(line, ".len() as u16");
            c.lock += count_token(line, "Mutex<") + count_token(line, "RwLock<");
        }
    }
    by_crate
}

/// Parses the baseline TOML (a `[crate]` section per crate, `key = n`
/// entries). Hand-rolled: the build environment has no crates.io, and
/// the format is six integers per section.
pub fn parse_baseline(text: &str) -> Result<BTreeMap<String, Counts>, String> {
    let mut out = BTreeMap::new();
    let mut section: Option<String> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let name = name.trim().to_string();
            out.entry(name.clone()).or_insert_with(Counts::default);
            section = Some(name);
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("baseline line {}: expected `key = n`", lineno + 1));
        };
        let Some(section) = section.as_ref() else {
            return Err(format!(
                "baseline line {}: entry outside a [crate] section",
                lineno + 1
            ));
        };
        let v: u64 = value
            .trim()
            .parse()
            .map_err(|_| format!("baseline line {}: bad count {}", lineno + 1, value.trim()))?;
        let c = out
            .get_mut(section)
            .ok_or_else(|| format!("baseline line {}: unknown section", lineno + 1))?;
        *c.slot(key.trim()).ok_or_else(|| {
            format!(
                "baseline line {}: unknown category {}",
                lineno + 1,
                key.trim()
            )
        })? = v;
    }
    Ok(out)
}

/// Renders a baseline deterministically (sorted crates, fixed key
/// order).
pub fn render_baseline(counts: &BTreeMap<String, Counts>) -> String {
    let mut out = String::from(
        "# drvlint panic-path baseline: per-crate counts of unwrap/expect/\n\
         # panic-macro/slice-index sites, cast-sized `with_capacity` calls,\n\
         # `.len()` narrowed to u8/u16 and Mutex/RwLock type sites in non-test\n\
         # code. `cargo run -p drvlint -- check` fails when any count rises;\n\
         # lower it with `cargo run -p drvlint -- update-baseline` after\n\
         # burning sites down. The baseline only ever goes down.\n",
    );
    for (name, c) in counts {
        out.push_str(&format!("\n[{name}]\n"));
        for cat in CATEGORIES {
            out.push_str(&format!("{cat} = {}\n", c.get(cat)));
        }
    }
    out
}

/// Compares current counts to the baseline. Raised counts are
/// findings; lowered counts come back as notes prompting a baseline
/// update.
pub fn check(
    current: &BTreeMap<String, Counts>,
    baseline: &BTreeMap<String, Counts>,
) -> (Vec<Finding>, Vec<String>) {
    let mut findings = Vec::new();
    let mut notes = Vec::new();
    for (name, cur) in current {
        let Some(base) = baseline.get(name) else {
            findings.push(Finding {
                file: "drvlint-baseline.toml".to_string(),
                line: 1,
                rule: "panic-ratchet".to_string(),
                message: format!(
                    "crate {name} has no baseline entry; run `cargo run -p drvlint -- \
                     update-baseline` and commit the result"
                ),
            });
            continue;
        };
        for cat in CATEGORIES {
            let (c, b) = (cur.get(cat), base.get(cat));
            if c > b {
                findings.push(Finding {
                    file: "drvlint-baseline.toml".to_string(),
                    line: 1,
                    rule: "panic-ratchet".to_string(),
                    message: format!(
                        "crate {name}: {cat} count rose {b} -> {c}; remove the new site \
                         (or consciously raise the baseline in review)"
                    ),
                });
            } else if c < b {
                notes.push(format!(
                    "crate {name}: {cat} count fell {b} -> {c}; ratchet the baseline down \
                     with `cargo run -p drvlint -- update-baseline`"
                ));
            }
        }
    }
    for name in baseline.keys() {
        if !current.contains_key(name) {
            notes.push(format!(
                "baseline names crate {name} which no longer exists; update-baseline will drop it"
            ));
        }
    }
    (findings, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> ScannedFile {
        ScannedFile::new("demo", "crates/demo/src/lib.rs", src)
    }

    #[test]
    fn counts_panic_sites_outside_tests() {
        let src = "\
fn f(v: &[u8], m: &Map) -> u8 {
    let a = v.first().unwrap();
    let b = m.get(0).expect(\"present\");
    if v.is_empty() { panic!(\"empty\") }
    let c = v[0] + v[1..][0];
    unreachable!()
}
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); y[0]; panic!(); }
}
";
        let c = count(&[scan(src)]);
        let d = c.get("demo").copied().unwrap_or_default();
        assert_eq!(d.unwrap, 1);
        assert_eq!(d.expect, 1);
        assert_eq!(d.panic, 2);
        // v[0], v[1..] and ...][0] are three index sites.
        assert_eq!(d.index, 3);
    }

    #[test]
    fn counts_lock_constructors_outside_tests() {
        let src = "\
struct S { a: Mutex<u8>, b: RwLock<u8>, c: Vec<Mutex<u8>> }
#[derive(Default)]
struct D { m: parking_lot::Mutex<u8> }
fn f() -> S {
    let c = (0..4).map(Mutex::new).collect();
    S { a: Mutex::new(0), b: RwLock::new(0), c }
}
fn g(m: &MyMutex<u8>) -> MutexGuard<'_, u8> { m.lock() }
const NOTE: &str = \"Mutex<u8>\";
#[cfg(test)]
mod tests {
    fn t() { let _: Mutex<u8> = Mutex::new(1); let _ = RwLock::new(2); }
}
";
        let c = count(&[scan(src)]);
        // The three fields of `S` and the path-qualified field of the
        // derived `D`, which no constructor call builds; a constructor,
        // a longer name, a guard, a string or a test module does not
        // count.
        assert_eq!(c.get("demo").copied().unwrap_or_default().lock, 4);
    }

    #[test]
    fn unwrap_or_and_strings_do_not_count() {
        let src = "\
fn f(o: Option<u32>) -> u32 {
    let s = \"call .unwrap() and panic!\";
    let v = vec![1, 2];
    o.unwrap_or(0) + o.unwrap_or_default() + v.len() as u32
}
";
        let c = count(&[scan(src)]);
        assert_eq!(
            c.get("demo").copied().unwrap_or_default(),
            Counts::default()
        );
    }

    #[test]
    fn capacities_sized_by_a_cast_count_once_per_call() {
        let src = "\
fn f(n: u32, m: u64, v: &[u8]) {
    let a: Vec<u8> = Vec::with_capacity(n as usize);
    let b = BytesMut::with_capacity(4 + (m as usize) * 8);
    let c: Vec<u8> = Vec::with_capacity(v.len());
    let d: Vec<u8> = Vec::with_capacity(v.len()); let e = n as usize;
    let g = (Vec::<u8>::with_capacity(m as usize), Vec::<u8>::with_capacity(8));
    let s = \"with_capacity(n as usize)\";
}
#[cfg(test)]
mod tests {
    fn t(n: u32) { let _: Vec<u8> = Vec::with_capacity(n as usize); }
}
";
        let c = count(&[scan(src)]);
        // a, b and the first half of g; a cast elsewhere on the line (d),
        // in a string (s) or in a test module does not count.
        assert_eq!(c.get("demo").copied().unwrap_or_default().cast_capacity, 3);
    }

    #[test]
    fn lengths_narrowed_to_u8_or_u16_count_outside_tests() {
        let src = "\
fn f(b: &mut BytesMut, v: &[u8], w: &[u64]) {
    b.put_u16_le(v.len() as u16);
    b.put_u8(w.len() as u8); b.put_u16_le(w.len() as u16);
    b.put_u32_le(v.len() as u32);
    let n = u16::try_from(v.len()).unwrap_or(u16::MAX);
    let s = \"v.len() as u16\";
}
#[cfg(test)]
mod tests {
    fn t(v: &[u8]) -> u8 { v.len() as u8 }
}
";
        let c = count(&[scan(src)]);
        // Three narrowing sites; a `u32` count, a checked conversion, a
        // string and a test module do not count.
        assert_eq!(c.get("demo").copied().unwrap_or_default().cast_count, 3);
    }

    #[test]
    fn baseline_roundtrips() {
        let mut m = BTreeMap::new();
        m.insert(
            "core".to_string(),
            Counts {
                unwrap: 3,
                expect: 1,
                panic: 0,
                index: 40,
                cast_capacity: 2,
                cast_count: 4,
                lock: 7,
            },
        );
        m.insert("netsim".to_string(), Counts::default());
        let text = render_baseline(&m);
        assert_eq!(parse_baseline(&text).unwrap(), m);
    }

    #[test]
    fn rising_counts_fail_and_falling_counts_note() {
        let mut base = BTreeMap::new();
        base.insert(
            "demo".to_string(),
            Counts {
                unwrap: 2,
                expect: 1,
                panic: 0,
                index: 5,
                cast_capacity: 0,
                cast_count: 0,
                lock: 2,
            },
        );
        let mut cur = base.clone();
        // Rise in unwrap, fall in index.
        cur.get_mut("demo").unwrap().unwrap = 3;
        cur.get_mut("demo").unwrap().index = 4;
        let (findings, notes) = check(&cur, &base);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("unwrap count rose 2 -> 3"));
        assert_eq!(notes.len(), 1);
        assert!(notes[0].contains("index count fell 5 -> 4"));
    }

    #[test]
    fn missing_crate_entry_is_a_finding() {
        let mut cur = BTreeMap::new();
        cur.insert("newcrate".to_string(), Counts::default());
        let (findings, _) = check(&cur, &BTreeMap::new());
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("no baseline entry"));
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(parse_baseline("unwrap = 3\n").is_err());
        assert!(parse_baseline("[core]\nunwrap = many\n").is_err());
        assert!(parse_baseline("[core]\nwhatever = 3\n").is_err());
    }
}
