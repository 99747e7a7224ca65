//! Deterministic report library behind the committed `BENCH_*.json`.
//!
//! Each scenario in [`scenarios`] is a `fn run(Size) -> Report` whose
//! record is a pure function of the code (byte counts, frame counts,
//! step counts, virtual time), so regenerating the reports and
//! `git diff --exit-code` is the staleness gate. The contract is total:
//! every recorded number sits under a [`Gates::require`] that states a
//! promise, and no gate reads a clock (drvlint's determinism pass covers
//! this crate). The paper's own tables are one of the scenarios,
//! [`scenarios::paper`]. Two callers drive them: `benches/reports.rs`,
//! the crate's only bench target, runs every scenario at [`Size::Full`],
//! writes the files and exits 1 on a failed gate; `tests/smoke.rs` runs
//! them at [`Size::Smoke`], asserts the gates and writes nothing.
//! Wall-clock is measured in one place only, `drvbench` (`benchmark/`);
//! see `EXPERIMENTS.md` for which of its metrics owns each report's
//! timing.

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
    scenarios::paper::run,
    scenarios::rollout::run,
    scenarios::sched::run,
    scenarios::shard::run,
];
