//! Zero-downtime hot swap under steady OLTP load.
//!
//! Three scenarios over a 50-client fleet, each under a scheduler-driven
//! steady workload where every client holds one long-lived managed
//! connection and every third client keeps a transaction open across
//! firings:
//!
//! 1. **Hot-swap upgrade** — v1 → v2 with a coexistence window: new
//!    sessions ride the new driver immediately, old sessions keep
//!    executing on v1 and migrate at their next transaction boundary.
//!    The application-visible ledger must stay clean: zero dropped
//!    queries, zero severed transactions, zero forced reconnects.
//! 2. **Baseline (no coexistence window)** — the identical fleet and
//!    workload upgrading the pre-swap way (expiration policy applied at
//!    activation). The ledger must show drops — proving the instrument
//!    measures what the hot swap eliminates.
//! 3. **Mid-rollout auto-rollback** — a staged rollout whose driver
//!    regresses after the canary wave; the health gate halts it and
//!    every upgraded client swaps back to the depot-held prior version
//!    (zero-transfer revalidation), draining symmetrically. The ledger
//!    must stay clean through *both* direction changes.
//!
//! Scenario 1 then re-runs under the same scheduler seed and must
//! reproduce every counter exactly (virtual time determinism).

use std::sync::Arc;
use std::time::Duration;

use drivolution_bootloader::{SwapConfig, SwapStats};
use drivolution_core::DriverId;
use drivolution_server::{RolloutConfig, RolloutPlan};
use fleet::{FleetSim, LoadStats, SteadyLoad};

use super::{fault_and_roll_back, v2, Rollback, MINUTE};
use crate::kit::{Gates, Report, Size};

const LEASE_MS: u64 = 5 * MINUTE;
const STEP_MS: u64 = 10_000;
/// Steady-load cadence: each client fires one work unit every 5 s.
const LOAD_EVERY: Duration = Duration::from_secs(5);
/// Every third client spreads its transaction over three firings, so
/// sessions are mid-transaction whenever an upgrade lands.
const HOLD_EVERY: usize = 3;
const WARMUP_MS: u64 = 2 * MINUTE;
const SETTLE_MS: u64 = 2 * MINUTE;

/// A fresh fleet with its steady load opened and warmed up.
fn warmed_fleet(clients: usize, hot_swap: Option<SwapConfig>) -> (FleetSim, Arc<SteadyLoad>) {
    let sim = FleetSim::build_hotswap(clients, LEASE_MS, hot_swap);
    let load = SteadyLoad::launch(sim.net(), sim.clients(), sim.url(), LOAD_EVERY, HOLD_EVERY);
    load.open_all().expect("steady load opens on a fresh fleet");
    sim.run_steady_state(STEP_MS, WARMUP_MS);
    (sim, load)
}

#[derive(PartialEq, Eq)]
struct SwapOutcome {
    load: LoadStats,
    swap: SwapStats,
    upgraded: usize,
    virtual_ms: u64,
}

/// Publishes v2 under load, pumps until the whole fleet runs it, then
/// lets every coexistence window settle. `hot_swap: None` is the
/// baseline shape (expiration policy applied at activation).
fn run_upgrade(clients: usize, hot_swap: Option<SwapConfig>) -> SwapOutcome {
    let (sim, load) = warmed_fleet(clients, hot_swap);
    let started_virtual = sim.net().clock().now_ms();
    sim.publish_upgrade(false);
    sim.run_until_on(v2(), STEP_MS, 30 * MINUTE);
    sim.run_steady_state(STEP_MS, SETTLE_MS);
    SwapOutcome {
        load: load.stats(),
        swap: sim.total_swap_stats(),
        upgraded: sim.count_on(v2()),
        virtual_ms: sim.net().clock().now_ms() - started_virtual,
    }
}

/// Staged rollout under steady load with hot swap on: the canary wave
/// passes, an activation fault is injected mid-percentage-wave, the
/// gate halts the rollout, and every upgraded client swaps back to the
/// depot-held v1 (downgrade windows settle too) — all while the ledger
/// stays clean.
fn run_rollback(clients: usize, gates: &mut Gates) -> (Rollback, LoadStats, SwapStats) {
    let (sim, load) = warmed_fleet(clients, Some(SwapConfig::default()));
    sim.publish_staged(2, v2(), 0);
    let plan = RolloutPlan {
        canary: (clients / 10).max(1),
        wave_pcts: vec![30],
    };
    let config = RolloutConfig {
        evaluate_every: Duration::from_secs(60),
        observe: Duration::from_millis(LEASE_MS + 2 * MINUTE),
        min_reports: 1,
        ..RolloutConfig::default()
    };
    let ro = sim.start_rollout(DriverId(1), DriverId(2), &plan, config);
    let rb = fault_and_roll_back(&sim, &ro, plan.canary, LEASE_MS, STEP_MS, SETTLE_MS, gates);
    (rb, load.stats(), sim.total_swap_stats())
}

fn set_ledger(r: &mut Report, prefix: &str, l: &LoadStats) {
    r.set(&format!("{prefix}_attempted"), l.attempted);
    r.set(&format!("{prefix}_committed"), l.committed);
    r.set(&format!("{prefix}_dropped_queries"), l.dropped_queries);
    r.set(
        &format!("{prefix}_severed_transactions"),
        l.severed_transactions,
    );
    r.set(&format!("{prefix}_reconnects"), l.reconnects);
}

/// Runs the scenario.
pub fn run(size: Size) -> Report {
    let clients = size.pick(12, 50);
    let swapped = run_upgrade(clients, Some(SwapConfig::default()));
    let baseline = run_upgrade(clients, None);
    let deterministic = run_upgrade(clients, Some(SwapConfig::default())) == swapped;
    let mut r = Report::new("hotswap");
    let (rb, rb_load, rb_swap) = run_rollback(clients, &mut r.gates);

    r.set("clients", clients);
    r.set("lease_ms", LEASE_MS);
    r.set("load_every_ms", LOAD_EVERY.as_millis() as u64);
    r.set("hold_every", HOLD_EVERY);
    set_ledger(&mut r, "swap", &swapped.load);
    r.set("swap_upgraded_clients", swapped.upgraded);
    r.set("swap_virtual_ms", swapped.virtual_ms);
    r.set("swap_windows_opened", swapped.swap.windows_opened);
    r.set("swap_windows_completed", swapped.swap.windows_completed);
    r.set("swap_sessions_migrated", swapped.swap.sessions_migrated);
    r.set("swap_sessions_drained", swapped.swap.sessions_drained);
    r.set("swap_sessions_forced", swapped.swap.sessions_forced);
    r.set("swap_blackout_ticks", swapped.swap.blackout_ticks);
    set_ledger(&mut r, "baseline", &baseline.load);
    r.set("replay_deterministic", deterministic);
    set_ledger(&mut r, "rollback", &rb_load);
    r.set("rollback_upgraded_at_fault", rb.upgraded_at_fault);
    r.set("rollback_rolled_back", rb.rolled_back);
    r.set("rollback_stranded", rb.stranded);
    r.set("rollback_recovery_virtual_ms", rb.recovery_virtual_ms);
    r.set("rollback_downgrades", rb_swap.downgrades);
    r.set("rollback_redownloads", rb.redownloads);

    let g = &mut r.gates;
    g.require(
        swapped.upgraded == clients,
        format!(
            "hot-swap upgrade left {} of {clients} clients behind",
            clients - swapped.upgraded
        ),
    );
    g.require(
        swapped.load.dropped_queries == 0
            && swapped.load.severed_transactions == 0
            && swapped.load.reconnects == 0,
        format!(
            "hot-swap upgrade was visible to the application: {:?}",
            swapped.load
        ),
    );
    g.require(
        swapped.load.committed > 0,
        "steady load committed nothing — the instrument is dead",
    );
    g.require(
        swapped.swap.windows_opened == swapped.swap.windows_completed
            && swapped.swap.windows_opened > 0,
        format!("coexistence windows did not settle: {:?}", swapped.swap),
    );
    g.require(
        swapped.swap.sessions_migrated > 0,
        "no session boundary-migrated during the hot swap",
    );
    g.require(
        swapped.swap.sessions_forced == 0 && swapped.swap.transactions_severed == 0,
        format!(
            "drain escalated to forced closes on a healthy fleet: {:?}",
            swapped.swap
        ),
    );
    g.require(
        baseline.load.dropped_queries > 0,
        "baseline upgrade showed no drops — the contrast (and the instrument) is broken",
    );
    g.require(deterministic, "same-seed replay diverged");
    g.require(
        rb.rolled_back && rb.stranded == 0,
        format!(
            "rollback failed (rolled_back={}, stranded={})",
            rb.rolled_back, rb.stranded
        ),
    );
    g.require(
        rb_load.dropped_queries == 0 && rb_load.severed_transactions == 0,
        format!("mid-rollout rollback was visible to the application: {rb_load:?}"),
    );
    g.require(
        rb_swap.downgrades > 0,
        "rollback opened no downgrade coexistence window",
    );
    g.require(
        rb.redownloads == 0,
        format!(
            "rollback re-transferred {} fetches the depot already held",
            rb.redownloads
        ),
    );
    r
}
