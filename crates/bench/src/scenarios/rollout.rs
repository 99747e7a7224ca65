//! Staged-rollout control plane at fleet scale.
//!
//! Two scenarios over a 10 000-client fleet:
//!
//! 1. **Healthy staged upgrade** — canary → two percentage waves → full
//!    fleet, every advance gated on activation reports plus an
//!    observation window. Reports per-wave virtual latency and the
//!    delta-plan memoization ratio: the server must *compute* orders of
//!    magnitude fewer chunk plans than the clients it serves (the
//!    10k-client fast path).
//! 2. **Mid-rollout regression** — the canary wave passes, then an
//!    activation fault is injected while a percentage wave is live. The
//!    health gate must halt the rollout and auto-roll every upgraded
//!    client back to the depot-held prior version: zero stranded
//!    clients, zero re-downloaded bytes.

use std::time::Duration;

use drivolution_core::DriverId;
use drivolution_server::{RolloutConfig, RolloutPhase, RolloutPlan};
use fleet::FleetSim;

use super::{fault_and_roll_back, v2, MINUTE};
use crate::kit::{Object, Report, Size, Value};

const LEASE_MS: u64 = 10 * MINUTE;
const STEP_MS: u64 = MINUTE;
const DRIVER_PADDING: usize = 64 * 1024;

fn plan() -> RolloutPlan {
    RolloutPlan {
        canary: 10,
        wave_pcts: vec![10, 30],
    }
}

fn config() -> RolloutConfig {
    RolloutConfig {
        evaluate_every: Duration::from_secs(60),
        // The observation window must outlast a lease so every wave
        // member renews (and reports) inside it.
        observe: Duration::from_millis(LEASE_MS + 5 * MINUTE),
        min_reports: 3,
        ..RolloutConfig::default()
    }
}

/// The batched fleet shape (license seat table on the server, one
/// `RENEW_BATCH` frame per aggregator tick instead of one request per
/// client), bootstrapped on v1 with v2 staged.
fn staged_fleet(clients: usize) -> FleetSim {
    let sim = FleetSim::build_rollout_batched(clients, LEASE_MS, DRIVER_PADDING);
    sim.bootstrap_all();
    sim.publish_staged(2, v2(), DRIVER_PADDING);
    sim
}

/// Runs the scenario.
pub fn run(size: Size) -> Report {
    let clients = size.pick(400, 10_000);
    let mut r = Report::new("rollout");
    r.set("clients", clients);
    r.set("lease_ms", LEASE_MS);
    r.set("canary", plan().canary);
    let pcts = plan().wave_pcts.into_iter().map(|p| u64::from(p).into());
    r.set("wave_pcts", Value::Array(pcts.collect()));

    // --- healthy staged upgrade: pump until the orchestrator settles ---
    let sim = staged_fleet(clients);
    sim.net().stats().reset();
    let ro = sim.start_rollout(DriverId(1), DriverId(2), &plan(), config());
    let started = sim.net().clock().now_ms();
    let deadline = started + 20 * (LEASE_MS + 5 * MINUTE);
    while sim.net().clock().now_ms() < deadline
        && matches!(ro.status().phase, RolloutPhase::Wave(_))
    {
        sim.net().run_until(sim.net().clock().now_ms() + STEP_MS);
    }
    let st = ro.status();
    let complete = st.phase == RolloutPhase::Complete;
    let upgraded = sim.count_on(v2());
    let opens: Vec<u64> = st
        .waves
        .iter()
        .map(|w| w.opened_at_ms.unwrap_or(0).saturating_sub(started))
        .collect();
    let waves = st.waves.iter().zip(&opens).enumerate().map(|(i, (w, at))| {
        Object::default()
            .with("wave", i)
            .with("members", w.members)
            .with("opened_at_virtual_ms", *at)
            .with("ok", w.ok)
            .with("err", w.err)
            .into()
    });
    r.set("waves", Value::Array(waves.collect()));
    let srv = sim.server().stats();
    let (plan_hits, plan_misses) = (srv.plan_hits, srv.plan_misses);
    let reuses: u64 = sim
        .clients()
        .iter()
        .map(|c| c.stats().shared_image_reuses)
        .sum();
    r.set("upgrade_complete", complete);
    r.set("upgraded_clients", upgraded);
    r.set("upgrade_virtual_ms", sim.net().clock().now_ms() - started);
    r.set("delta_plans_computed", plan_misses);
    r.set("delta_plans_memoized", plan_hits);
    r.set("batch_frames", srv.batch_frames);
    r.set("batched_renewals", srv.batched_renewals);
    r.set("shared_image_reuses", reuses);
    drop(sim);

    // --- mid-rollout regression ---------------------------------------
    let sim = staged_fleet(clients);
    let ro = sim.start_rollout(DriverId(1), DriverId(2), &plan(), config());
    let rb = fault_and_roll_back(&sim, &ro, plan().canary, LEASE_MS, STEP_MS, 0, &mut r.gates);
    r.set("regression_upgraded_at_fault", rb.upgraded_at_fault);
    r.set("regression_rolled_back", rb.rolled_back);
    let failed_wave = rb.failed_wave.map_or(Value::Null, Value::from);
    r.set("regression_failed_wave", failed_wave);
    r.set("regression_stranded", rb.stranded);
    r.set("regression_recovery_virtual_ms", rb.recovery_virtual_ms);
    r.set("rollback_revalidations", rb.revalidations);
    r.set("rollback_redownloads", rb.redownloads);

    let g = &mut r.gates;
    g.require(
        complete && upgraded == clients,
        format!("healthy rollout did not complete ({upgraded} of {clients} upgraded)"),
    );
    g.require(
        opens.windows(2).all(|w| w[0] < w[1]),
        format!("waves opened out of order: {opens:?}"),
    );
    g.require(
        opens.len() >= 4,
        format!(
            "expected canary + 2 percentage waves + remainder, got {} waves",
            opens.len()
        ),
    );
    // The fast path: the server memoizes delta plans, so plans computed
    // must be a sliver of the clients served.
    g.require(
        plan_misses * 50 <= plan_hits.max(1),
        format!(
            "computed {plan_misses} delta plans for {plan_hits} memoized serves — memoization broke"
        ),
    );
    g.require(
        rb.rolled_back,
        "injected activation fault did not halt the rollout",
    );
    g.require(
        rb.stranded == 0,
        format!(
            "{} clients stranded on the bad version after rollback",
            rb.stranded
        ),
    );
    g.require(
        rb.redownloads == 0,
        format!(
            "rollback re-transferred {} driver fetches the depot already held",
            rb.redownloads
        ),
    );
    r
}
