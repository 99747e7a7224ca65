//! Deterministic report library behind the committed `BENCH_*.json`.
//!
//! Each scenario in [`scenarios`] is a `fn run(Size) -> Report` whose
//! record is a pure function of the code (byte counts, frame counts,
//! virtual time), so regenerating the reports and `git diff --exit-code`
//! is the staleness gate. Two callers drive them: `benches/reports.rs`
//! runs every scenario at [`Size::Full`], writes the files and exits 1
//! on a failed gate; `tests/smoke.rs` runs them at [`Size::Smoke`],
//! asserts the gates and writes nothing. Wall-clock is measured in one
//! place only, `drvbench` (`benchmark/`); see `EXPERIMENTS.md` for which
//! of its metrics owns each report's timing.

mod kit;
pub mod scenarios;

pub use kit::{Gates, Object, Report, Size, SizeStats, Value};

/// Every scenario, in the order the callers run them.
pub const SCENARIOS: [fn(Size) -> Report; 9] = [
    scenarios::cdc::run,
    scenarios::chaos::run,
    scenarios::depot::run,
    scenarios::hotswap::run,
    scenarios::mirror::run,
    scenarios::pipeline::run,
    scenarios::rollout::run,
    scenarios::sched::run,
    scenarios::shard::run,
];
