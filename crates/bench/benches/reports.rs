//! Regenerates every committed `BENCH_<name>.json` at full size and
//! exits 1 when any scenario's gate fails. Takes no arguments; the
//! records are deterministic, so CI follows this with
//! `git diff --exit-code -- 'BENCH_*.json'`.
//!
//! Run with: `cargo bench -p drivolution-bench --bench reports`

use std::path::Path;

use drivolution_bench::{Size, SCENARIOS};

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut failed = false;
    for run in SCENARIOS {
        let report = run(Size::Full);
        let json = report.to_json();
        print!("{json}");
        let out = root.join(format!("BENCH_{}.json", report.name));
        if let Err(e) = std::fs::write(&out, json) {
            eprintln!("failed to write {}: {e}", out.display());
            failed = true;
        }
        for msg in report.gates.failures() {
            eprintln!("REGRESSION: {}: {msg}", report.name);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
