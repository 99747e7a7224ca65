//! CDN-style mirror directory under a multi-zone fleet upgrade.
//!
//! A 3-zone fleet (50 depot-equipped clients, one depot mirror per zone,
//! primary in zone a) performs two driver upgrades. The first runs with
//! every mirror healthy and measures locality: with zone-aware candidate
//! ranking, chunk bytes should stay inside the client's zone. During the
//! second, the zone-c mirror is killed mid-upgrade: clients drain to the
//! next candidate (client-side walk before the directory notices, then
//! directory quarantine), and the fleet upgrade must complete with zero
//! failures.

use drivolution_bootloader::{LifecyclePolicy, PollOutcome};
use drivolution_core::{DriverVersion, DRIVOLUTION_PORT};
use fleet::{FleetSim, SimSpec};
use netsim::Addr;

use super::mirror_walked_out;
use crate::kit::{Object, Report, Size, Value};

const ZONES: [&str; 3] = ["zone-a", "zone-b", "zone-c"];
const DRIVER_PADDING: usize = 256 * 1024;
const LEASE_MS: u64 = 600_000; // 10 virtual minutes
const SAME_ZONE_MS: u64 = 1;
const CROSS_ZONE_MS: u64 = 25;

fn p99(mut latencies: Vec<u64>) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    let idx = ((latencies.len() as f64) * 0.99).ceil() as usize;
    latencies[idx.clamp(1, latencies.len()) - 1]
}

/// Expires every lease and refreshes mirror liveness so the next poll
/// sweep renews against a current directory. Clients are built with a
/// manual lifecycle (this scenario steers exactly who polls when), so
/// the run_due pump only fires the mirrors' scheduler heartbeat tasks.
fn expire_leases(sim: &FleetSim) {
    sim.net().clock().advance_ms(LEASE_MS + 1);
    sim.net().scheduler().run_due();
}

/// Polls clients `range`, returning how many did *not* upgrade.
fn poll_range(sim: &FleetSim, range: std::ops::Range<usize>) -> usize {
    sim.clients()[range]
        .iter()
        .filter(|c| !matches!(c.poll(), PollOutcome::Upgraded { .. }))
        .count()
}

fn drain_latencies(sim: &FleetSim) -> Vec<u64> {
    sim.clients()
        .iter()
        .flat_map(|c| c.take_fetch_latencies())
        .collect()
}

/// Runs the scenario.
pub fn run(size: Size) -> Report {
    let clients = size.pick(12, 50);
    let sim = FleetSim::from_spec(SimSpec {
        driver_padding: DRIVER_PADDING,
        // Manual client lifecycle: the failover choreography below needs
        // per-client control over who polls before and after the kill.
        // (The sched scenario measures the fully scheduler-driven flow.)
        lifecycle: LifecyclePolicy::manual(),
        zones: &ZONES,
        same_zone_ms: SAME_ZONE_MS,
        cross_zone_ms: CROSS_ZONE_MS,
        ..SimSpec::new(clients, LEASE_MS)
    });
    let primary = Addr::new("db1", DRIVOLUTION_PORT);

    sim.bootstrap_all();
    let bootstrap_egress = sim.net().stats().for_addr(&primary).bytes_out;
    let _ = drain_latencies(&sim); // bootstraps are full-file, not chunk fetches

    // --- Upgrade 1: every mirror healthy -----------------------------
    sim.publish(2, DriverVersion::new(2, 0, 0), DRIVER_PADDING, false);
    expire_leases(&sim);
    let mut failed = poll_range(&sim, 0..clients);
    let healthy_p99 = p99(drain_latencies(&sim));

    // --- Upgrade 2: kill the zone-c mirror mid-upgrade ---------------
    sim.publish(3, DriverVersion::new(3, 0, 0), DRIVER_PADDING, false);
    expire_leases(&sim);
    let cut = clients * 3 / 5;
    failed += poll_range(&sim, 0..cut);
    sim.net().with_faults(|f| f.take_down("mirror-zone-c"));
    // A few clients race the failure detector: their plans may still
    // rank the dead mirror first, so the client-side walk must drain
    // them to the next candidate.
    failed += poll_range(&sim, cut..cut + 2);
    // The silent mirror misses its heartbeats and is quarantined; the
    // rest of the fleet upgrades against a directory that no longer
    // offers it. The pump fires the live mirrors' heartbeat tasks and
    // records the dead one's failures on its task counters.
    sim.net().clock().advance_ms(20_000);
    sim.net().scheduler().run_due();
    failed += poll_range(&sim, cut + 2..clients);
    let failover_p99 = p99(drain_latencies(&sim));

    let on_v3 = sim.fraction_on(DriverVersion::new(3, 0, 0));
    let quarantined = mirror_walked_out(&sim, "mirror-zone-c:1071");

    // --- Ledgers ------------------------------------------------------
    let stats: Vec<_> = sim.clients().iter().map(|c| c.stats()).collect();
    let same_zone: u64 = stats.iter().map(|s| s.same_zone_chunk_bytes).sum();
    let cross_zone: u64 = stats.iter().map(|s| s.cross_zone_chunk_bytes).sum();
    let fallbacks: u64 = stats.iter().map(|s| s.mirror_fallbacks).sum();
    let mirror_fetches: u64 = stats.iter().map(|s| s.mirror_chunk_fetches).sum();
    let same_zone_fraction = same_zone as f64 / (same_zone + cross_zone).max(1) as f64;
    let upgrade_egress = sim.net().stats().for_addr(&primary).bytes_out - bootstrap_egress;
    let mirror_served: u64 = sim
        .mirrors()
        .iter()
        .map(|m| m.stats().chunk_bytes_served)
        .sum();

    let mut r = Report::new("mirror");
    r.set("clients", clients);
    r.set("zones", ZONES.len());
    r.set("driver_padding_bytes", DRIVER_PADDING);
    let latency = Object::default()
        .with("same_zone", SAME_ZONE_MS)
        .with("cross_zone", CROSS_ZONE_MS);
    r.set("latency_ms", latency);
    r.set("bootstrap_primary_egress_bytes", bootstrap_egress);
    r.set("upgrade_primary_egress_bytes", upgrade_egress);
    r.set("mirror_chunk_bytes_served", mirror_served);
    r.set("same_zone_chunk_bytes", same_zone);
    r.set("cross_zone_chunk_bytes", cross_zone);
    r.set("same_zone_fraction", Value::Float(same_zone_fraction, 4));
    r.set("mirror_chunk_fetches", mirror_fetches);
    r.set("primary_fallbacks", fallbacks);
    r.set("p99_fetch_latency_ms_healthy", healthy_p99);
    r.set("p99_fetch_latency_ms_mirror_killed", failover_p99);
    r.set("failed_upgrades", failed);
    r.set("dead_mirror_quarantined", quarantined);

    let g = &mut r.gates;
    g.require(
        on_v3 >= 1.0 && failed == 0,
        format!(
            "fleet upgrade incomplete ({failed} failures, {:.0}% on v3)",
            on_v3 * 100.0
        ),
    );
    g.require(
        same_zone_fraction >= 0.9,
        format!(
            "only {:.1}% of chunk bytes served same-zone (target >= 90%)",
            same_zone_fraction * 100.0
        ),
    );
    g.require(quarantined, "dead mirror was not quarantined or evicted");
    g.require(
        fallbacks == 0,
        format!("{fallbacks} clients fell back to the primary despite live mirrors"),
    );
    r
}
