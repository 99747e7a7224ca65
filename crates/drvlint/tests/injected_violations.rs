//! Acceptance tests against the real workspace: the check passes on
//! the current tree, and injecting each class of violation into the
//! scanned sources (in memory — the tree itself is never modified)
//! makes it fail with the right rule.

use std::path::{Path, PathBuf};

use drvlint::{collect_workspace, run_passes, Finding, ScannedFile, BASELINE_FILE};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/drvlint sits two levels below the workspace root")
        .to_path_buf()
}

fn scanned_tree() -> (Vec<ScannedFile>, String) {
    let root = repo_root();
    let files = collect_workspace(&root).expect("scan workspace");
    let baseline =
        std::fs::read_to_string(root.join(BASELINE_FILE)).expect("read drvlint-baseline.toml");
    (files, baseline)
}

/// Re-scans one file after applying `edit` to its raw source, leaving
/// every other file untouched.
fn with_edit(
    files: &[ScannedFile],
    rel_path: &str,
    edit: impl Fn(&str) -> String,
) -> Vec<ScannedFile> {
    let mut edited = false;
    let out: Vec<ScannedFile> = files
        .iter()
        .map(|f| {
            if f.rel_path == rel_path {
                edited = true;
                let src = f.raw_lines.join("\n");
                let new_src = edit(&src);
                assert_ne!(src, new_src, "edit to {rel_path} was a no-op");
                ScannedFile::new(&f.crate_dir, &f.rel_path, &new_src)
            } else {
                f.clone()
            }
        })
        .collect();
    assert!(edited, "{rel_path} not found in the scanned tree");
    out
}

fn rules_of(findings: &[Finding]) -> Vec<(&str, &str)> {
    findings
        .iter()
        .map(|f| (f.rule.as_str(), f.file.as_str()))
        .collect()
}

#[test]
fn current_tree_is_clean() {
    let (files, baseline) = scanned_tree();
    let report = run_passes(&files, &baseline).expect("run passes");
    assert!(
        report.is_clean(),
        "drvlint must pass on the committed tree:\n{:#?}",
        report.findings
    );
}

#[test]
fn fresh_wallclock_read_in_netsim_fails() {
    let (files, baseline) = scanned_tree();
    let files = with_edit(&files, "crates/netsim/src/net.rs", |src| {
        format!(
            "{src}\nfn injected_probe() -> u64 {{\n    \
             let t0 = std::time::Instant::now();\n    \
             t0.elapsed().as_millis() as u64\n}}\n"
        )
    });
    let report = run_passes(&files, &baseline).expect("run passes");
    let hits = rules_of(&report.findings);
    assert!(
        hits.contains(&("wallclock", "crates/netsim/src/net.rs")),
        "expected a wallclock finding in net.rs, got {hits:?}"
    );
}

/// The report library is a sim crate: a report is a pure function of
/// the code, so a clock read or a thread in a scenario is a finding.
#[test]
fn wallclock_read_or_thread_in_a_report_scenario_fails() {
    let (files, baseline) = scanned_tree();
    let scenario = "crates/bench/src/scenarios/cdc.rs";
    let files = with_edit(&files, scenario, |src| {
        format!(
            "{src}\nfn injected_probe() -> f64 {{\n    \
             let t0 = std::time::Instant::now();\n    \
             std::thread::spawn(|| ());\n    \
             t0.elapsed().as_secs_f64()\n}}\n"
        )
    });
    let report = run_passes(&files, &baseline).expect("run passes");
    let hits = rules_of(&report.findings);
    for rule in ["wallclock", "thread-spawn"] {
        assert!(
            hits.contains(&(rule, scenario)),
            "expected a {rule} finding in {scenario}, got {hits:?}"
        );
    }
}

#[test]
fn unwrap_count_above_baseline_fails() {
    let (files, baseline) = scanned_tree();
    let files = with_edit(&files, "crates/core/src/chunk.rs", |src| {
        format!("{src}\nfn injected_unwrap(v: Option<u8>) -> u8 {{\n    v.unwrap()\n}}\n")
    });
    let report = run_passes(&files, &baseline).expect("run passes");
    let ratchet: Vec<&Finding> = report
        .findings
        .iter()
        .filter(|f| f.rule == "panic-ratchet")
        .collect();
    assert_eq!(ratchet.len(), 1, "{:#?}", report.findings);
    assert!(
        ratchet[0].message.contains("unwrap count rose"),
        "{}",
        ratchet[0].message
    );
}

#[test]
fn capacity_sized_by_a_cast_fails_outside_tests_only() {
    let (files, baseline) = scanned_tree();
    let injected = "fn injected(n: u32) -> Vec<u8> {\n    Vec::with_capacity(n as usize)\n}\n";
    // Inside the `#[cfg(test)]` module the line is test code; appended
    // behind it, it is not.
    let in_tests = with_edit(&files, "crates/core/src/chunk.rs", |src| {
        src.replacen("mod tests {", &format!("mod tests {{\n{injected}"), 1)
    });
    assert!(run_passes(&in_tests, &baseline)
        .expect("run passes")
        .is_clean());
    let in_src = with_edit(&files, "crates/core/src/chunk.rs", |src| {
        format!("{src}\n{injected}")
    });
    let report = run_passes(&in_src, &baseline).expect("run passes");
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    assert_eq!(report.findings[0].rule, "panic-ratchet");
    assert!(
        report.findings[0]
            .message
            .contains("crate core: cast-capacity count rose 0 -> 1"),
        "{}",
        report.findings[0].message
    );
}

/// The encode-side twin: a length narrowed to a `u16` count wraps past
/// 65 535 and the frame decodes to a different message.
#[test]
fn a_length_narrowed_to_a_wire_count_fails() {
    let (files, baseline) = scanned_tree();
    let files = with_edit(&files, "crates/depot/src/index.rs", |src| {
        format!("{src}\nfn injected_count(v: &[u64]) -> u16 {{\n    v.len() as u16\n}}\n")
    });
    let report = run_passes(&files, &baseline).expect("run passes");
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    assert!(
        report.findings[0]
            .message
            .contains("crate depot: cast-count count rose 0 -> 1"),
        "{}",
        report.findings[0].message
    );
}

#[test]
fn allow_without_reason_fails() {
    let (files, baseline) = scanned_tree();
    let files = with_edit(&files, "crates/netsim/src/net.rs", |src| {
        format!("{src}\n// drvlint: allow(wallclock)\n")
    });
    let report = run_passes(&files, &baseline).expect("run passes");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "bad-allow" && f.message.contains("justification")),
        "{:#?}",
        report.findings
    );
}

#[test]
fn allow_naming_unknown_rule_fails() {
    let (files, baseline) = scanned_tree();
    let files = with_edit(&files, "crates/netsim/src/net.rs", |src| {
        format!("{src}\n// drvlint: allow(no-such-rule) — because reasons\n")
    });
    let report = run_passes(&files, &baseline).expect("run passes");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "bad-allow" && f.message.contains("no-such-rule")),
        "{:#?}",
        report.findings
    );
}

/// A counter kept in a `static` belongs to no world: the rule that
/// keeps `core::transfer`'s nonce and `cluster::driver`'s balancing
/// count inside their components.
#[test]
fn a_mutable_static_in_a_sim_crate_fails() {
    let (files, baseline) = scanned_tree();
    let path = "crates/core/src/transfer.rs";
    let files = with_edit(&files, path, |src| {
        format!("{src}\nstatic NONCE_COUNTER: AtomicU64 = AtomicU64::new(1);\n")
    });
    let report = run_passes(&files, &baseline).expect("run passes");
    assert_eq!(
        rules_of(&report.findings),
        vec![("global-state", path)],
        "{:#?}",
        report.findings
    );
}
