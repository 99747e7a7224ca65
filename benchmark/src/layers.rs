//! The per-layer metrics of a traced run: span sums, budget shares, counts,
//! memory, and the unit costs.

use crate::run::{self, metric, Metric, Round, RunResult};
use crate::stats::{quantile, ratio};
use crate::trace::{self, Span, Tracer};
use crate::units::Units;
use crate::workloads::{SETUP_BOOTSTRAP, SETUP_BUILD, STEP_PUMP};

/// Span time and count under one name, inside a window.
#[derive(Clone, Copy, Default)]
struct Sum {
    ns: u64,
    count: u64,
}

impl Sum {
    fn mean_us(self) -> f64 {
        ratio(self.ns as f64 / 1e3, self.count as f64)
    }
}

/// The spans of one round, cut at the boundary of its timed part.
struct RoundSpans<'a> {
    spans: Vec<&'a Span>,
    timed: &'a Span,
}

impl<'a> RoundSpans<'a> {
    fn of(spans: &'a [Span], round: u32) -> Option<Self> {
        let spans: Vec<&Span> = spans.iter().filter(|s| s.round == round).collect();
        let timed = *spans.iter().find(|s| s.name == "timed")?;
        Some(RoundSpans { spans, timed })
    }

    fn sum(&self, in_timed_part: bool, pick: impl Fn(&str) -> bool) -> Sum {
        let inside = |s: &Span| s.start_ns >= self.timed.start_ns && s.end_ns <= self.timed.end_ns;
        self.spans
            .iter()
            .filter(|s| pick(s.name) && inside(s) == in_timed_part)
            .fold(Sum::default(), |acc, s| Sum {
                ns: acc.ns + s.ns(),
                count: acc.count + 1,
            })
    }
}

fn median_over(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    quantile(&rounds.iter().map(f).collect::<Vec<_>>(), 0.5)
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
///
/// Span-derived figures come from the fastest traced round alone: one
/// round is consistent with itself, and the fastest is the least disturbed.
pub fn per_layer(
    plain: &RunResult,
    traced: &RunResult,
    tracer: &Tracer,
    units: Units,
) -> Vec<Metric> {
    let spans = tracer.spans();
    let best = (0..traced.rounds.len())
        .min_by(|&a, &b| {
            traced.rounds[a]
                .timed_s
                .total_cmp(&traced.rounds[b].timed_s)
        })
        .unwrap_or(0);
    let round = &traced.rounds[best];
    let v = &round.verdict;
    let ops = v.ops as f64;
    let clients = (v.hosts as f64 - 1.0).max(1.0);
    let mut m = Vec::new();

    {
        let rs =
            RoundSpans::of(&spans, best as u32).expect("a traced round records its timed span");
        let timed_ns = rs.timed.ns() as f64;
        let steps = rs.sum(true, |n| {
            !n.starts_with("server.call.") && n != trace::DB_CALL && n != "timed"
        });
        let server = rs.sum(true, |n| n.starts_with("server.call."));
        let db = rs.sum(true, |n| n == trace::DB_CALL);
        let tasks: u64 = round.timed.iter().map(|s| s.tasks).sum();
        let request_ns = if v.hosts >= 1000 {
            units.request_ns_10k
        } else {
            units.request_ns_1
        };
        let net_self = v.wire_frames as f64 * request_ns;
        let sched_self = tasks as f64 * units.task_ns;
        let client =
            (steps.ns as f64 - server.ns as f64 - db.ns as f64 - net_self - sched_self).max(0.0);
        let shares = [
            ("server.handle_share", server.ns as f64),
            ("minidb.wire.serve_share", db.ns as f64),
            ("netsim.net.self_share", net_self),
            ("netsim.sched.self_share", sched_self),
            ("bootloader.client_share", client),
        ];
        let attributed: f64 = shares.iter().map(|(_, ns)| ns).sum();
        for (name, ns) in shares {
            m.push(metric(name, "ratio", ratio(ns, timed_ns)));
        }
        m.push(metric(
            "trace.unattributed_share",
            "ratio",
            1.0 - ratio(attributed, timed_ns),
        ));

        for (name, span) in [
            ("server.handle_us.request", trace::SRV_REQUEST),
            ("server.handle_us.renew", trace::SRV_RENEW),
            ("server.handle_us.renew_batch", trace::SRV_RENEW_BATCH),
            ("server.handle_us.file_request", trace::SRV_FILE_REQUEST),
            ("server.handle_us.chunk_request", trace::SRV_CHUNK_REQUEST),
            (
                "server.handle_us.activation_report",
                trace::SRV_ACTIVATION_REPORT,
            ),
        ] {
            m.push(metric(name, "us", rs.sum(true, |n| n == span).mean_us()));
        }
        m.push(metric(
            "fleet.sim.build_us_per_client",
            "us",
            rs.sum(false, |n| n == SETUP_BUILD).ns as f64 / 1e3 / clients,
        ));
        m.push(metric(
            "bootloader.warm_bootstrap_us",
            "us",
            rs.sum(false, |n| n == SETUP_BOOTSTRAP).ns as f64 / 1e3 / clients,
        ));
        m.push(metric(
            "netsim.sched.tasks_per_op",
            "count",
            ratio(tasks as f64, ops),
        ));
    }

    m.push(metric(
        "trace.overhead_share",
        "ratio",
        ratio(traced.timed_floor_s(), plain.timed_floor_s()) - 1.0,
    ));

    // Counts, all deterministic.
    let c = |name: &str| v.counter(name) as f64;
    m.extend([
        metric(
            "netsim.net.requests_per_op",
            "count",
            ratio(v.wire_frames as f64, ops),
        ),
        metric(
            "core.proto.frames_per_op",
            "count",
            ratio((v.wire_frames - v.db_requests) as f64, ops),
        ),
        metric(
            "core.proto.wire_bytes_per_op",
            "B",
            ratio(v.wire_bytes as f64, ops),
        ),
        metric("bootloader.downloads", "count", c("downloads")),
        metric("bootloader.delta_downloads", "count", c("delta_downloads")),
        metric("bootloader.revalidations", "count", c("revalidations")),
        metric("bootloader.polls_per_op", "count", ratio(c("polls"), ops)),
        metric(
            "fleet.aggregator.renewals_per_frame",
            "count",
            ratio(c("batched_renewals"), c("batch_frames")),
        ),
        metric(
            "depot.index.plan_hit_ratio",
            "ratio",
            ratio(c("plan_hits"), c("plan_hits") + c("plan_misses")),
        ),
        metric(
            "depot.shared.reuse_ratio",
            "ratio",
            ratio(c("shared_image_reuses"), ops),
        ),
        metric(
            "bootloader.swap.windows_completed",
            "count",
            c("swap_windows_completed"),
        ),
        metric(
            "bootloader.swap.sessions_forced",
            "count",
            c("swap_sessions_forced"),
        ),
        metric(
            "bootloader.swap.blackout_ticks",
            "count",
            c("swap_blackout_ticks"),
        ),
        metric(
            "fleet.load.committed_share",
            "ratio",
            ratio(c("load_committed"), c("load_attempted")),
        ),
    ]);

    // Memory and run diagnostics, from the untraced rounds.
    let alloc_bytes = median_over(&plain.rounds, |r| r.alloc_bytes as f64);
    m.extend([
        metric("mem.alloc_bytes_per_op", "B", ratio(alloc_bytes, ops)),
        metric(
            "mem.allocs_per_op",
            "count",
            ratio(median_over(&plain.rounds, |r| r.allocs as f64), ops),
        ),
        metric(
            "mem.copy_factor",
            "ratio",
            ratio(alloc_bytes, v.payload_bytes as f64),
        ),
        metric("mem.minor_faults_per_op", "count", plain.faults_per_op()),
    ]);
    m.extend(run::diagnostics(plain));
    let pumps: Vec<f64> = (plain.rounds.iter())
        .flat_map(|r| &r.timed)
        .filter(|s| s.name == STEP_PUMP)
        .map(|s| s.ns as f64 / 1e3)
        .collect();
    m.push(metric(
        "netsim.sched.step_p50_us",
        "us",
        quantile(&pumps, 0.5),
    ));
    m.push(metric(
        "netsim.sched.step_p99_us",
        "us",
        quantile(&pumps, 0.99),
    ));

    m.extend(units.metrics);
    m
}
