//! The round loop: warm-up, timed rounds, the determinism check, the wall
//! estimator and the end-to-end metrics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::mem;
use crate::stats::{iqr_over_median, quantile, ratio};
use crate::trace::Tracer;
use crate::workloads::{self, Probe, Scale, Step, Verdict};

/// A reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Everything one round measured.
pub struct Round {
    /// Steps of the setup part (world building, fleet bootstrap).
    pub setup: Vec<Step>,
    /// Steps of the timed part (the scenario).
    pub timed: Vec<Step>,
    /// Wall time of the whole timed part, between-step checks included.
    pub timed_s: f64,
    pub verdict: Verdict,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub minor_faults: u64,
    /// Most heap bytes live at once between the round's start and the end
    /// of its teardown.
    pub peak_heap_bytes: u64,
}

/// Runs one round: build the world (setup part), execute the scenario
/// (timed part), read the verdict, drop the world.
pub fn round(workload: &str, seed: u64, scale: Scale, tracer: Option<Arc<Tracer>>) -> Round {
    let part = |name: &'static str| tracer.as_ref().map(|t| t.enter(name));
    let close = |span: Option<usize>| {
        if let (Some(t), Some(id)) = (&tracer, span) {
            t.exit(id);
        }
    };

    mem::reset_peak();
    let root = part("round");
    let span = part("setup");
    let mut setup = Probe::new(tracer.clone());
    let mut world = workloads::setup(workload, seed, scale, tracer.clone(), &mut setup)
        .expect("workload name was validated by the caller");
    close(span);

    let mut timed = Probe::new(tracer.clone());
    let (allocs0, bytes0) = mem::alloc_counters();
    let faults0 = mem::minor_faults();
    let span = part("timed");
    let t0 = Instant::now();
    world.run(&mut timed);
    let timed_s = t0.elapsed().as_secs_f64();
    close(span);
    let minor_faults = mem::minor_faults() - faults0;
    let (allocs1, bytes1) = mem::alloc_counters();

    let verdict = world.verdict();
    workloads::teardown(world);
    close(root);
    Round {
        setup: setup.steps,
        timed: timed.steps,
        timed_s,
        verdict,
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
        minor_faults,
        peak_heap_bytes: mem::peak_live_bytes(),
    }
}

/// The wall estimator (README, "Why the fastest run of each step"): rounds
/// are identical, so step `k` does the same work in every round; its
/// fastest observation is the one least disturbed by the machine's other
/// tenants, and the sum over `k` is the time of a round none of whose
/// steps was disturbed. A minimum depends on the sample size, so runs that
/// are compared must hold the same number of rounds ([`measure`]). Seconds.
pub fn floor_s<'a>(rounds: &'a [Round], part: impl Fn(&'a Round) -> &'a [Step]) -> f64 {
    let steps = rounds.iter().map(|r| part(r).len()).min().unwrap_or(0);
    let ns: u64 = (0..steps)
        .map(|k| rounds.iter().map(|r| part(r)[k].ns).min().unwrap_or(0))
        .sum();
    ns as f64 / 1e9
}

/// The outcome of a run's timed rounds.
pub struct RunResult {
    pub rounds: Vec<Round>,
    /// First violated invariant or counter mismatch.
    pub violation: Option<String>,
}

impl RunResult {
    fn new(rounds: Vec<Round>) -> Self {
        let violation = first_violation(&rounds);
        RunResult { rounds, violation }
    }

    pub fn attempted(&self) -> u64 {
        self.rounds
            .iter()
            .map(|r| r.verdict.ops + r.verdict.failed)
            .sum()
    }

    pub fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.verdict.failed).sum()
    }

    pub fn first(&self) -> &Round {
        &self.rounds[0]
    }

    pub fn setup_floor_s(&self) -> f64 {
        floor_s(&self.rounds, |r| &r.setup)
    }

    pub fn timed_floor_s(&self) -> f64 {
        floor_s(&self.rounds, |r| &r.timed)
    }

    /// Median minor faults per op of the timed parts.
    pub fn faults_per_op(&self) -> f64 {
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| ratio(r.minor_faults as f64, r.verdict.ops as f64))
            .collect();
        quantile(&per_round, 0.5)
    }

    /// The page-fault guard: at most 1 % of an op's payload pages (at least
    /// one page) may fault per op in the timed part.
    pub fn fault_budget_per_op(&self) -> f64 {
        let v = &self.first().verdict;
        let pages = (ratio(v.payload_bytes as f64, v.ops as f64) / 4096.0).max(1.0);
        0.01 * pages
    }
}

/// Compares every round's deterministic counters, step sequence and
/// invariants with round 0's; returns the first difference.
fn first_violation(rounds: &[Round]) -> Option<String> {
    let base = rounds.first()?;
    for (i, r) in rounds.iter().enumerate() {
        if let Some(v) = &r.verdict.violation {
            return Some(format!("round {i}: {v}"));
        }
        if r.verdict.ops != base.verdict.ops || r.verdict.failed != base.verdict.failed {
            return Some(format!(
                "round {i}: ops/failed {}/{} differ from round 0's {}/{}",
                r.verdict.ops, r.verdict.failed, base.verdict.ops, base.verdict.failed
            ));
        }
        if r.setup.len() != base.setup.len() || r.timed.len() != base.timed.len() {
            return Some(format!(
                "round {i}: {}+{} steps differ from round 0's {}+{}",
                r.setup.len(),
                r.timed.len(),
                base.setup.len(),
                base.timed.len()
            ));
        }
        if let Some((k, _)) = (r.timed.iter().zip(&base.timed))
            .enumerate()
            .find(|(_, (a, b))| a.ops != b.ops || a.tasks != b.tasks)
        {
            return Some(format!(
                "round {i}: step {k} completed other ops than round 0's"
            ));
        }
        for ((name, a), (_, b)) in r.verdict.counters.iter().zip(&base.verdict.counters) {
            if a != b {
                return Some(format!(
                    "round {i}: counter {name} = {a} differs from round 0's {b}"
                ));
            }
        }
    }
    None
}

/// Fewest timed rounds after which the guard of [`measure`] may end a run.
pub const GUARD_MIN_ROUNDS: usize = 10;

/// One untimed warm-up round, then `rounds` timed rounds. The count is the
/// caller's constant and not what fits a time budget: a minimum falls as the
/// sample grows, so both sides of a comparison must draw the same number of
/// rounds however fast they run. Only a run already past `guard`, with at
/// least [`GUARD_MIN_ROUNDS`] rounds done, stops early (and says so).
pub fn measure(
    workload: &str,
    seed: u64,
    scale: Scale,
    rounds: usize,
    guard: Duration,
) -> RunResult {
    round(workload, seed, scale, None);
    let started = Instant::now();
    let mut done = Vec::with_capacity(rounds);
    while done.len() < rounds {
        if done.len() >= GUARD_MIN_ROUNDS && started.elapsed() > guard {
            eprintln!(
                "note: {workload} stopped after {} of {rounds} rounds, {} s guard passed",
                done.len(),
                guard.as_secs()
            );
            break;
        }
        done.push(round(workload, seed, scale, None));
    }
    RunResult::new(done)
}

/// Rounds of each kind in a traced run.
pub const TRACED_ROUNDS: usize = 3;

/// The traced run: a warm-up, then untraced and traced rounds in turn, so
/// both kinds see the same machine. Returns (untraced, traced, spans).
pub fn measure_traced(
    workload: &str,
    seed: u64,
    scale: Scale,
) -> (RunResult, RunResult, Arc<Tracer>) {
    let tracer = Tracer::new();
    round(workload, seed, scale, None);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for i in 0..TRACED_ROUNDS {
        plain.push(round(workload, seed, scale, None));
        tracer.set_round(i as u32);
        traced.push(round(workload, seed, scale, Some(tracer.clone())));
    }
    (RunResult::new(plain), RunResult::new(traced), tracer)
}

/// The six end-to-end metrics.
pub fn end_to_end(run: &RunResult) -> Vec<Metric> {
    let v = &run.first().verdict;
    let ops = v.ops as f64;
    vec![
        metric("setup_s", "s", run.setup_floor_s()),
        metric("ops_per_s", "1/s", ratio(ops, run.timed_floor_s())),
        metric(
            "converge_virtual_ms",
            "virtual_ms",
            v.converge_virtual_ms as f64,
        ),
        metric(
            "primary_bytes_per_op",
            "B",
            ratio(v.primary_bytes as f64, ops),
        ),
        metric(
            "primary_requests_per_op",
            "count",
            ratio(v.primary_requests as f64, ops),
        ),
        // Round 0's: the run's own bookkeeping adds some KiB per round.
        metric(
            "peak_heap_mb",
            "MiB",
            run.first().peak_heap_bytes as f64 / (1 << 20) as f64,
        ),
    ]
}

/// Per-op times in µs, one sample per timed step that completed ops.
fn op_times_us(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| &r.timed)
        .filter(|s| s.ops > 0)
        .map(|s| s.ns as f64 / 1e3 / s.ops as f64)
        .collect()
}

/// The ungated `run.*` diagnostics: what the estimator left out.
pub fn diagnostics(run: &RunResult) -> Vec<Metric> {
    let ops = op_times_us(&run.rounds);
    let total_ops: u64 = run.rounds.iter().map(|r| r.verdict.ops).sum();
    let round_s: Vec<f64> = run.rounds.iter().map(|r| r.timed_s).collect();
    let total_s: f64 = round_s.iter().sum();
    vec![
        metric("run.rounds", "count", run.rounds.len() as f64),
        metric(
            "run.steps_per_round",
            "count",
            run.first().timed.len() as f64,
        ),
        metric(
            "run.op_mean_us",
            "us",
            ratio(total_s * 1e6, total_ops as f64),
        ),
        metric("run.op_p50_us", "us", quantile(&ops, 0.5)),
        metric("run.op_p99_us", "us", quantile(&ops, 0.99)),
        metric("run.round_p25_s", "s", quantile(&round_s, 0.25)),
        metric("run.round_spread", "ratio", iqr_over_median(&round_s)),
        // How much slower the average round ran than the undisturbed one.
        metric(
            "run.disturbance",
            "ratio",
            ratio(total_s / run.rounds.len() as f64, run.timed_floor_s()) - 1.0,
        ),
        metric("run.peak_rss_mb", "MiB", mem::vm_hwm_kib() as f64 / 1024.0),
        metric(
            "run.failed_share",
            "ratio",
            ratio(run.failed() as f64, run.attempted() as f64),
        ),
    ]
}
