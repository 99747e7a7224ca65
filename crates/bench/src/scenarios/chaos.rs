//! Chaos tier: fleet convergence under a seed-reproducible fault
//! schedule.
//!
//! A 3-zone CDN fleet performs two driver upgrades while a
//! [`netsim::ChaosSchedule`] drives one byzantine mirror (25% of its
//! serves corrupted in flight), a zone partition that heals, and a
//! latency storm. Swept across seeds, the run records the *worst-case*
//! convergence time and checks the chaos-tier property end to end: every
//! upgrade converges with correct bytes, corrupted serves are reported
//! via `MIRROR_COMPLAINT` and demote the byzantine mirror, no healthy
//! mirror is ever demoted, and a same-seed replay reproduces every
//! `NetStats` counter.

use drivolution_core::DriverVersion;
use fleet::{FleetSim, SimSpec};
use netsim::{Addr, AddrStats, ChaosSchedule};

use super::MINUTE;
use crate::kit::{Object, Report, Size, Value};

const ZONES: [&str; 3] = ["east", "west", "south"];
const DRIVER_PADDING: usize = 32 * 1024;
const LEASE_MS: u64 = 10 * MINUTE;
const SAME_ZONE_MS: u64 = 1;
const CROSS_ZONE_MS: u64 = 25;
const CORRUPT_RATE: f64 = 0.25;
const BYZANTINE: &str = "mirror-west";

struct SeedOutcome {
    seed: u64,
    convergence_v2_ms: u64,
    convergence_v3_ms: u64,
    failed_upgrades: usize,
    wrong_byte_installs: usize,
    corrupted_serves: u64,
    complaints: u64,
    byzantine_demoted: bool,
    healthy_demotions: usize,
    snapshot: Vec<(Addr, AddrStats)>,
}

/// One chaos run: two upgrades under the byzantine/partition/storm
/// schedule, all lifecycle scheduler-driven.
fn run_seed(seed: u64, clients: usize) -> SeedOutcome {
    let sim = FleetSim::from_spec(SimSpec {
        driver_padding: DRIVER_PADDING,
        zones: &ZONES,
        same_zone_ms: SAME_ZONE_MS,
        cross_zone_ms: CROSS_ZONE_MS,
        ..SimSpec::new(clients, LEASE_MS)
    });
    sim.net().scheduler().reseed(seed);
    sim.net().reseed(seed);
    sim.bootstrap_all();

    let t0 = sim.net().clock().now_ms();
    sim.install_chaos(
        &ChaosSchedule::new()
            .byzantine_mirror(BYZANTINE, CORRUPT_RATE, t0, t0 + 200 * MINUTE)
            .zone_partition("east", "south", t0 + 2 * MINUTE, t0 + 8 * MINUTE)
            .latency_storm(6, t0 + 3 * MINUTE, t0 + 10 * MINUTE),
    );

    let (v2, v3) = (DriverVersion::new(2, 0, 0), DriverVersion::new(3, 0, 0));
    sim.publish(2, v2, DRIVER_PADDING, false);
    let r2 = sim.run_until_on(v2, MINUTE, 90 * MINUTE);
    let v2_missing = clients - sim.count_on(v2);
    sim.publish(3, v3, DRIVER_PADDING, false);
    let r3 = sim.run_until_on(v3, MINUTE, 90 * MINUTE);
    let v3_missing = clients - sim.count_on(v3);

    let dir = sim.server().mirror_directory();
    let byz_location = format!("{BYZANTINE}:1071");
    SeedOutcome {
        seed,
        convergence_v2_ms: r2.time_to_full_upgrade_ms,
        convergence_v3_ms: r3.time_to_full_upgrade_ms,
        failed_upgrades: v2_missing + v3_missing,
        // "Wrong bytes" = clients whose active image digest disagrees
        // with the fleet consensus (exactly one digest on v3).
        wrong_byte_installs: sim.image_digests_on(v3).len().saturating_sub(1),
        corrupted_serves: sim
            .net()
            .stats()
            .for_addr(&Addr::new(BYZANTINE, 1071))
            .corrupted,
        complaints: sim.server().stats().mirror_complaints,
        byzantine_demoted: dir.entry(&byz_location).is_some_and(|e| e.demoted),
        healthy_demotions: dir
            .snapshot()
            .iter()
            .filter(|e| e.location != byz_location && e.demoted)
            .count(),
        snapshot: sim.net().stats().snapshot(),
    }
}

/// Runs the scenario.
pub fn run(size: Size) -> Report {
    let clients = size.pick(12, 24);
    let seeds: &[u64] = size.pick(&[9, 23], &[9, 17, 23, 31, 41]);
    let outcomes: Vec<SeedOutcome> = seeds.iter().map(|&s| run_seed(s, clients)).collect();
    // Same-seed replay must reproduce the full per-address counter
    // ledger — including dropped/partitioned/corrupted kinds.
    let replay_identical = run_seed(seeds[0], clients).snapshot == outcomes[0].snapshot;

    let worst_ms = outcomes
        .iter()
        .map(|o| o.convergence_v2_ms.max(o.convergence_v3_ms))
        .max()
        .unwrap_or(0);
    let failed: usize = outcomes.iter().map(|o| o.failed_upgrades).sum();
    let wrong_bytes: usize = outcomes.iter().map(|o| o.wrong_byte_installs).sum();
    let healthy_demotions: usize = outcomes.iter().map(|o| o.healthy_demotions).sum();
    let demoted_seeds = outcomes.iter().filter(|o| o.byzantine_demoted).count();
    let corrupted: u64 = outcomes.iter().map(|o| o.corrupted_serves).sum();
    let complaints: u64 = outcomes.iter().map(|o| o.complaints).sum();

    let mut r = Report::new("chaos");
    r.set("clients", clients);
    r.set("zones", ZONES.len());
    r.set("driver_padding_bytes", DRIVER_PADDING);
    r.set("corrupt_rate", Value::Float(CORRUPT_RATE, 2));
    r.set(
        "schedule",
        format!("byzantine {BYZANTINE} for the run; east|south partition 2-8 min; 6x latency storm 3-10 min"),
    );
    let per_seed = outcomes.iter().map(|o| {
        Object::default()
            .with("seed", o.seed)
            .with("convergence_v2_ms", o.convergence_v2_ms)
            .with("convergence_v3_ms", o.convergence_v3_ms)
            .with("corrupted_serves", o.corrupted_serves)
            .with("complaints", o.complaints)
            .with("byzantine_demoted", o.byzantine_demoted)
            .into()
    });
    r.set("per_seed", Value::Array(per_seed.collect()));
    r.set("worst_convergence_ms", worst_ms);
    r.set("failed_upgrades", failed);
    r.set("wrong_byte_installs", wrong_bytes);
    r.set("corrupted_serves", corrupted);
    r.set("mirror_complaints", complaints);
    r.set("byzantine_demoted_seeds", demoted_seeds);
    r.set("healthy_demotions", healthy_demotions);
    r.set("replay_identical", replay_identical);

    let g = &mut r.gates;
    g.require(
        failed == 0,
        format!("{failed} upgrades failed to converge under chaos"),
    );
    g.require(
        wrong_bytes == 0,
        format!("{wrong_bytes} wrong-byte installs survived verification"),
    );
    g.require(
        corrupted > 0,
        "the byzantine mirror never corrupted a serve (schedule inert)",
    );
    g.require(
        complaints >= corrupted,
        format!("{corrupted} corrupted serves but only {complaints} complaints"),
    );
    g.require(
        demoted_seeds > 0,
        "corroborated complaints never demoted the byzantine mirror",
    );
    g.require(
        healthy_demotions == 0,
        format!("{healthy_demotions} healthy mirrors falsely demoted"),
    );
    g.require(
        replay_identical,
        "same-seed replay diverged — chaos is not deterministic",
    );
    r
}
