//! Determinism lint for sim-facing crates.
//!
//! The netsim world promises *same seed ⇒ same schedule, same wire
//! traffic, same bench numbers*. That promise dies the moment library
//! code reads the wall clock, spawns OS threads, draws from an ambient
//! RNG, or lets hash-map iteration order reach a wire frame or a stats
//! snapshot. This pass bans those constructs in the sim-facing crates;
//! the rare legitimate site carries an inline
//! `// drvlint: allow(<rule>) — <reason>` escape hatch.
//!
//! Rules:
//!
//! * `wallclock` — `Instant::now` / `SystemTime` (virtual time comes
//!   from `netsim::Clock`, never the OS);
//! * `thread-spawn` — `std::thread::spawn` (concurrency is modeled by
//!   the scheduler, not preemption);
//! * `ambient-rng` — `thread_rng` (randomness must be seeded);
//! * `map-iter` — iterating a `HashMap`/`HashSet` (`.iter()`,
//!   `.keys()`, `.values()`, `for … in &map`, ...): iteration order is
//!   arbitrary and changes between runs, so anything it feeds —
//!   codecs, candidate ranking, stats — becomes nondeterministic. Use
//!   `BTreeMap`/`BTreeSet` or sort before use;
//! * `global-state` — a `static` whose type holds an `Atomic*`, `Mutex`,
//!   `RwLock`, `Cell` or `OnceLock`: state outside every world, so a
//!   second same-seed world in the process starts where the first left
//!   off. A world's counters belong to the component that counts.

use crate::scan::{Finding, ScannedFile};

/// Crates whose `src/` trees are sim-facing: everything that can feed
/// the codec, the scheduler, or stats ordering — and `bench`, whose
/// committed reports must stay a pure function of the code.
pub const SIM_CRATES: &[&str] = &[
    "bench",
    "bootloader",
    "cluster",
    "core",
    "depot",
    "driverkit",
    "fleet",
    "minidb",
    "netsim",
    "server",
];

/// Every rule this pass can emit (used to validate allow comments).
pub const RULES: &[&str] = &[
    "wallclock",
    "thread-spawn",
    "ambient-rng",
    "map-iter",
    "global-state",
];

/// Type names that make a `static` mutable state ([`mutable_static`]).
const INTERIOR_MUTABLE: &[&str] = &["Atomic", "Mutex", "RwLock", "Cell", "OnceLock"];

/// Whether the masked `line` declares a `static` whose type holds one of
/// [`INTERIOR_MUTABLE`].
fn mutable_static(line: &str) -> bool {
    let decl = line.trim_start();
    let decl = ["pub(crate) ", "pub "]
        .iter()
        .find_map(|v| decl.strip_prefix(v))
        .unwrap_or(decl);
    let Some(rest) = decl.strip_prefix("static ") else {
        return false;
    };
    let ty = rest
        .split_once(':')
        .map_or("", |(_, ty)| ty.split('=').next().unwrap_or(ty));
    INTERIOR_MUTABLE.iter().any(|name| ty.contains(name))
}

const BANNED_ITERS: &[&str] = &[
    "iter()",
    "iter_mut()",
    "keys()",
    "values()",
    "values_mut()",
    "into_iter()",
    "into_keys()",
    "into_values()",
    "drain()",
];

/// Guard/adapter calls that preserve "this is still the same map":
/// lock guards, interior borrows, and clones.
const PASS_THROUGH: &[&str] = &[
    "lock()",
    "read()",
    "write()",
    "borrow()",
    "borrow_mut()",
    "as_ref()",
    "as_mut()",
    "clone()",
];

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Identifiers in this file declared (or derived from) a
/// `HashMap`/`HashSet`, found by a forward taint scan:
///
/// * `name: ... Hash{Map,Set}<...>` — struct fields, typed lets, params;
/// * `let name = ...Hash{Map,Set}...` — constructors and collects;
/// * `let guard = tainted.lock()` — lock/borrow guards over a tainted
///   binding keep the taint.
fn tainted_names(file: &ScannedFile) -> Vec<String> {
    let mut tainted: Vec<String> = Vec::new();
    let add = |name: &str, tainted: &mut Vec<String>| {
        if !name.is_empty() && !tainted.iter().any(|t| t == name) {
            tainted.push(name.to_string());
        }
    };
    for (idx, line) in file.masked_lines.iter().enumerate() {
        if file.in_test[idx] {
            continue;
        }
        // Declarations with an explicit hash type after a `:`.
        for marker in ["HashMap<", "HashSet<"] {
            let mut from = 0;
            while let Some(at) = line[from..].find(marker) {
                let abs = from + at;
                from = abs + marker.len();
                if let Some(name) = decl_name_before(line, abs) {
                    add(&name, &mut tainted);
                }
            }
        }
        // `let` bindings whose initializer mentions a hash container or
        // is a pure guard/alias over a tainted binding.
        let trimmed = line.trim_start();
        let Some(rest) = trimmed
            .strip_prefix("let mut ")
            .or_else(|| trimmed.strip_prefix("let "))
        else {
            continue;
        };
        let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
        if name.is_empty() {
            continue;
        }
        let Some(eq) = rest.find('=') else { continue };
        let rhs = rest[eq + 1..].trim().trim_end_matches(';').trim();
        if rhs.contains("HashMap") || rhs.contains("HashSet") {
            add(&name, &mut tainted);
        } else if let Some(base) = guard_base(rhs) {
            if tainted.contains(&base) {
                add(&name, &mut tainted);
            }
        }
    }
    tainted
}

/// For `self.inner.services.read()` (or a bare path), returns the last
/// path segment before any pass-through calls — `services` — if the
/// expression is nothing but a path plus pass-through calls.
fn guard_base(rhs: &str) -> Option<String> {
    let mut expr = rhs.trim_start_matches('&').trim_start();
    expr = expr.strip_prefix("mut ").unwrap_or(expr);
    let mut last_ident = String::new();
    let mut chars = expr.chars().peekable();
    loop {
        let seg: String = {
            let mut s = String::new();
            while let Some(&c) = chars.peek() {
                if is_ident(c) {
                    s.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            s
        };
        if seg.is_empty() {
            return None;
        }
        match chars.peek() {
            None => {
                // Bare path: the final segment is the base.
                return Some(
                    if PASS_THROUGH.iter().any(|p| p.trim_end_matches("()") == seg) {
                        last_ident
                    } else {
                        seg
                    },
                );
            }
            Some('.') => {
                last_ident = seg;
                chars.next();
            }
            Some('(') => {
                // Only pass-through calls keep the alias pure.
                chars.next();
                if chars.next() != Some(')') {
                    return None;
                }
                if !PASS_THROUGH.iter().any(|p| p.trim_end_matches("()") == seg) {
                    return None;
                }
                match chars.peek() {
                    None => return Some(last_ident),
                    Some('.') => {
                        chars.next();
                    }
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
}

/// The identifier declared before the `:` that introduces the type
/// containing `HashMap<`/`HashSet<` at byte offset `at`, if this looks
/// like a declaration (field, typed let, fn param).
fn decl_name_before(line: &str, at: usize) -> Option<String> {
    let bytes = line.as_bytes();
    let mut i = at;
    // Walk back over type-ish characters to the declaring `:`.
    loop {
        if i == 0 {
            return None;
        }
        i -= 1;
        let c = bytes[i] as char;
        if c == ':' {
            if i > 0 && bytes[i - 1] as char == ':' {
                // `::` path separator — keep walking.
                i -= 1;
                continue;
            }
            break;
        }
        let type_ish =
            is_ident(c) || matches!(c, '<' | '>' | '&' | '\'' | ' ' | ',' | '(' | ')' | '*');
        if !type_ish {
            return None;
        }
    }
    // `i` sits on the declaring colon; the identifier ends just before.
    let mut end = i;
    while end > 0 && (bytes[end - 1] as char).is_whitespace() {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && is_ident(bytes[start - 1] as char) {
        start -= 1;
    }
    if start == end {
        return None;
    }
    Some(line[start..end].to_string())
}

/// Whether the masked `line` iterates the tainted binding `name`:
/// either `name[.pass_through()]*.iter()`-style calls or a
/// `for … in [&[mut ]]name` loop header.
fn iterates(line: &str, name: &str) -> bool {
    for at in ScannedFile::word_positions(line, name) {
        let mut rest = &line[at + name.len()..];
        // Method-call chain: strip pass-through segments, then check
        // for a banned iteration method.
        loop {
            if let Some(r) = rest.strip_prefix('.') {
                if let Some(banned) = BANNED_ITERS.iter().find(|b| r.starts_with(**b)) {
                    let _ = banned;
                    return true;
                }
                if let Some(p) = PASS_THROUGH.iter().find(|p| r.starts_with(**p)) {
                    rest = &r[p.len()..];
                    continue;
                }
            }
            break;
        }
        // `for x in &name {` / `for (k, v) in name.lock().iter()` is
        // caught above; here: the bare borrow form.
        let before = line[..at].trim_end();
        if before.ends_with(" in") || before.ends_with("&") || before.ends_with("&mut") {
            let header_ok = {
                let t = line[..at].trim_end();
                let t = t.trim_end_matches("&mut").trim_end_matches('&').trim_end();
                t.ends_with(" in") && line[..at].contains("for ")
            };
            if header_ok {
                let after = line[at + name.len()..].trim_start();
                if after.is_empty() || after.starts_with('{') {
                    return true;
                }
            }
        }
    }
    false
}

/// Runs the determinism rules over every sim-facing file.
pub fn check(files: &[ScannedFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if !SIM_CRATES.contains(&file.crate_dir.as_str()) {
            continue;
        }
        let tainted = tainted_names(file);
        for (idx, line) in file.masked_lines.iter().enumerate() {
            if file.in_test[idx] {
                continue;
            }
            let hit = |rule: &str, message: String, findings: &mut Vec<Finding>| {
                if !file.allowed(idx, rule) {
                    findings.push(Finding {
                        file: file.rel_path.clone(),
                        line: idx + 1,
                        rule: rule.to_string(),
                        message,
                    });
                }
            };
            if line.contains("Instant::now") || line.contains("SystemTime") {
                hit(
                    "wallclock",
                    "wall-clock read in a sim-facing crate; take a netsim::Clock instead"
                        .to_string(),
                    &mut findings,
                );
            }
            if line.contains("thread::spawn") {
                hit(
                    "thread-spawn",
                    "OS thread spawned in a sim-facing crate; register a scheduler task instead"
                        .to_string(),
                    &mut findings,
                );
            }
            if line.contains("thread_rng") {
                hit(
                    "ambient-rng",
                    "ambient RNG in a sim-facing crate; use a seeded generator".to_string(),
                    &mut findings,
                );
            }
            if mutable_static(line) {
                hit(
                    "global-state",
                    "mutable static in a sim-facing crate: state no world owns; \
                     keep the count in the component that counts"
                        .to_string(),
                    &mut findings,
                );
            }
            for name in &tainted {
                if iterates(line, name) {
                    hit(
                        "map-iter",
                        format!(
                            "iteration over hash container `{name}`: order is nondeterministic; \
                             use a BTree collection or sort before use"
                        ),
                        &mut findings,
                    );
                    break;
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> ScannedFile {
        ScannedFile::new("netsim", "crates/netsim/src/demo.rs", src)
    }

    #[test]
    fn flags_wall_clock_thread_and_rng() {
        let src = "\
fn f() {
    let t = std::time::Instant::now();
    let s = std::time::SystemTime::now();
    std::thread::spawn(|| {});
    let r = rand::thread_rng();
}
";
        let rules: Vec<String> = check(&[scan(src)]).into_iter().map(|f| f.rule).collect();
        assert_eq!(
            rules,
            vec!["wallclock", "wallclock", "thread-spawn", "ambient-rng"]
        );
    }

    #[test]
    fn ignores_strings_comments_and_tests() {
        let src = "\
fn f() {
    // Instant::now() would be wrong here.
    let s = \"Instant::now()\";
}
#[cfg(test)]
mod tests {
    fn t() {
        let started = std::time::Instant::now();
    }
}
";
        assert!(check(&[scan(src)]).is_empty());
    }

    #[test]
    fn allow_comment_suppresses_with_reason() {
        let src = "\
fn system() {
    // drvlint: allow(wallclock) — explicit real-time constructor
    let origin = Instant::now();
}
";
        assert!(check(&[scan(src)]).is_empty());
    }

    #[test]
    fn map_iteration_is_flagged_through_guards() {
        let src = "\
struct S { entries: Mutex<HashMap<String, u32>>, v: Vec<u32> }
fn f(s: &S) {
    let m = s.entries.lock();
    for x in m.values() { use_it(x); }
    for y in s.v.iter() { use_it(y); }
}
";
        let f = check(&[scan(src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "map-iter");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn for_in_borrowed_map_is_flagged() {
        let src = "\
fn f() {
    let mut counts = HashMap::new();
    for (k, v) in &counts {
        use_it(k, v);
    }
}
";
        let f = check(&[scan(src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn vec_iteration_and_lookups_are_fine() {
        let src = "\
struct S { held: HashMap<u64, Vec<u32>> }
fn f(s: &S, k: u64) {
    let v = s.held.get(&k);
    if let Some(list) = v { for x in list.iter() { use_it(x); } }
}
";
        assert!(check(&[scan(src)]).is_empty());
    }

    #[test]
    fn mutable_statics_are_flagged_and_constants_are_not() {
        let src = "\
static COUNTER: AtomicU64 = AtomicU64::new(0);
pub(crate) static CACHE: Mutex<Vec<u8>> = Mutex::new(Vec::new());
pub static ONCE: std::sync::OnceLock<u8> = std::sync::OnceLock::new();
fn f() {
    static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
}
static NAME: &str = \"Mutex\";
const LIMIT: usize = 4;
static TABLE: [u8; 2] = [0, 1];
";
        let lines: Vec<usize> = check(&[scan(src)])
            .into_iter()
            .filter(|f| f.rule == "global-state")
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![1, 2, 3, 5]);
    }

    #[test]
    fn non_sim_crates_are_exempt() {
        let f = ScannedFile::new(
            "drvlint",
            "crates/drvlint/src/x.rs",
            "fn f() { let t = Instant::now(); }",
        );
        assert!(check(&[f]).is_empty());
    }
}
