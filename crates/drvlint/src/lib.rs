//! drvlint — the workspace static-analysis gate.
//!
//! An offline, dependency-free lint pass that turns two prose
//! invariants of this reproduction into machine-checked build gates:
//!
//! 1. **Determinism** ([`determinism`]) — sim-facing crates never read
//!    the wall clock, spawn threads, draw ambient randomness, keep
//!    mutable state in a `static`, or let hash-map iteration order
//!    escape into wire frames, candidate ranking, or stats.
//! 2. **Panic-path hygiene** ([`ratchet`]) — per-crate counts of
//!    `unwrap`/`expect`/panic-macro/slice-index sites only ever go
//!    down, against `drvlint-baseline.toml`.
//!
//! Wire-protocol conformance is the compiler's: every tag and code byte
//! is an enum declared once through `netsim::codec::wire_enum!`.
//!
//! Run as `cargo run -p drvlint -- check`; wired into CI ahead of the
//! bench gates and into the tier-1 suite via `tests/drvlint_gate.rs`.
//! The escape hatch is an inline
//! `// drvlint: allow(<rule>) — <reason>` comment on (or directly
//! above) the offending line; allows without a reason are themselves
//! findings.

pub mod determinism;
pub mod ratchet;
pub mod scan;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub use scan::{Finding, ScannedFile};

/// Workspace-relative path of the panic-path baseline.
pub const BASELINE_FILE: &str = "drvlint-baseline.toml";

/// Crate directories under `crates/` that drvlint never scans: API
/// shims standing in for crates.io dependencies (not ours to ratchet)
/// and drvlint's own fixtures.
const SKIP_DIRS: &[&str] = &["shims"];

/// Outcome of a full `check` run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Rule violations; any entry fails the build.
    pub findings: Vec<Finding>,
    /// Non-fatal observations (ratchet counts that can be lowered).
    pub notes: Vec<String>,
}

impl Report {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        paths.push(entry.map_err(|e| format!("{}: {e}", dir.display()))?.path());
    }
    paths.sort();
    for path in paths {
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans every workspace crate's `src/` tree (skipping shims), sorted
/// by path for deterministic output.
pub fn collect_workspace(root: &Path) -> Result<Vec<ScannedFile>, String> {
    let crates_dir = root.join("crates");
    let entries =
        std::fs::read_dir(&crates_dir).map_err(|e| format!("{}: {e}", crates_dir.display()))?;
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let path = entry
            .map_err(|e| format!("{}: {e}", crates_dir.display()))?
            .path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if path.is_dir() && !SKIP_DIRS.contains(&name.as_str()) {
            crate_dirs.push(path);
        }
    }
    crate_dirs.sort();
    let mut files = Vec::new();
    for dir in crate_dirs {
        let crate_dir = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        walk_rs(&src, &mut paths)?;
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(ScannedFile::new(&crate_dir, &rel, &read(&path)?));
        }
    }
    Ok(files)
}

/// Every rule name any pass can emit (plus `panic-ratchet` and the
/// allow-machinery rule), used to reject allow comments naming rules
/// that do not exist.
fn known_rules() -> Vec<&'static str> {
    let mut rules = Vec::new();
    rules.extend_from_slice(determinism::RULES);
    rules.push("panic-ratchet");
    rules
}

/// Runs both passes over the scanned files against the given baseline
/// text.
pub fn run_passes(files: &[ScannedFile], baseline_text: &str) -> Result<Report, String> {
    let mut report = Report::default();
    let known = known_rules();
    for file in files {
        for (line, problem) in &file.bad_allows {
            report.findings.push(Finding {
                file: file.rel_path.clone(),
                line: *line,
                rule: "bad-allow".to_string(),
                message: problem.clone(),
            });
        }
        for (idx, allows) in file.allows.iter().enumerate() {
            for rule in allows {
                if !known.contains(&rule.as_str()) {
                    report.findings.push(Finding {
                        file: file.rel_path.clone(),
                        line: idx + 1,
                        rule: "bad-allow".to_string(),
                        message: format!("allow names unknown rule `{rule}`"),
                    });
                }
            }
        }
    }
    report.findings.extend(determinism::check(files));
    let counts = ratchet::count(files);
    let baseline = ratchet::parse_baseline(baseline_text)?;
    let (findings, notes) = ratchet::check(&counts, &baseline);
    report.findings.extend(findings);
    report.notes.extend(notes);
    // Deterministic ordering: by file, then line, then rule.
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(report)
}

/// Full workspace check rooted at `root` (the directory holding
/// `Cargo.toml` and `drvlint-baseline.toml`).
pub fn run_check(root: &Path) -> Result<Report, String> {
    let files = collect_workspace(root)?;
    let baseline = read(&root.join(BASELINE_FILE))
        .map_err(|e| format!("{e}; run `cargo run -p drvlint -- update-baseline` first"))?;
    run_passes(&files, &baseline)
}

/// Recomputes panic-path counts and rewrites the baseline file.
/// Returns the rendered text.
pub fn update_baseline(root: &Path) -> Result<String, String> {
    let files = collect_workspace(root)?;
    let counts = ratchet::count(&files);
    let text = ratchet::render_baseline(&counts);
    let path = root.join(BASELINE_FILE);
    let old: BTreeMap<String, ratchet::Counts> = match std::fs::read_to_string(&path) {
        Ok(t) => ratchet::parse_baseline(&t)?,
        Err(_) => BTreeMap::new(),
    };
    for (name, cur) in &counts {
        if let Some(base) = old.get(name) {
            for cat in ratchet::CATEGORIES {
                let (c, b) = (cur.get(cat), base.get(cat));
                if c > b {
                    eprintln!(
                        "warning: crate {name}: {cat} baseline rising {b} -> {c}; \
                         the ratchet is meant to go down"
                    );
                }
            }
        }
    }
    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text)
}
