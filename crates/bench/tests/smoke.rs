//! Runs every scenario at `Size::Smoke`: all gates hold, nothing is
//! written, and the library's registry, its scenario modules and the
//! committed reports name the same nine scenarios.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use drivolution_bench::{Size, SCENARIOS};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Names of the files in `dir` shaped `<prefix><name><suffix>`.
fn names(dir: &Path, prefix: &str, suffix: &str) -> BTreeSet<String> {
    let files = std::fs::read_dir(dir).unwrap();
    files
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter_map(|f| Some(f.strip_prefix(prefix)?.strip_suffix(suffix)?.to_string()))
        .collect()
}

fn committed_reports() -> Vec<(String, Vec<u8>)> {
    names(&root(), "BENCH_", ".json")
        .into_iter()
        .map(|name| {
            let bytes = std::fs::read(root().join(format!("BENCH_{name}.json"))).unwrap();
            (name, bytes)
        })
        .collect()
}

#[test]
fn every_scenario_passes_its_gates_at_smoke_size_and_writes_nothing() {
    let before = committed_reports();

    let mut ran = BTreeSet::new();
    for run in SCENARIOS {
        let report = run(Size::Smoke);
        let failures = report.gates.failures();
        assert!(failures.is_empty(), "{}: {failures:?}", report.name);
        ran.insert(report.name.to_string());
    }

    assert_eq!(before, committed_reports(), "a smoke run touched a report");
    assert_eq!(ran.len(), 9);
    // Every scenario module is in the registry the bench main runs, and
    // every registered scenario has its committed report.
    let modules = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/scenarios");
    assert_eq!(ran, names(&modules, "", ".rs"));
    assert_eq!(ran, before.into_iter().map(|(name, _)| name).collect());
}
