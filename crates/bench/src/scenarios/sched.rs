//! Virtual-time lifecycle scheduler under a fleet upgrade.
//!
//! A 3-zone, 50-client CDN fleet performs a driver upgrade driven
//! *purely* by scheduler ticks: every client registered its own
//! lifecycle task (a jittered poll grid and lease auto-renewal), every
//! mirror its own heartbeat task, and the only thing the scenario does
//! is pump `Network::run_until`. Zero manual `poll()` or `heartbeat()`
//! calls. Mid-wave, a one-shot scheduler task kills one zone's mirror:
//! clients drain to the next candidate, the directory quarantines the
//! silent entry, the upgrade completes with zero failures, and the dead
//! mirror's missed beats land on its task's error counters instead of
//! vanishing.
//!
//! The whole scenario is then replayed from scratch and must reproduce
//! the identical schedule (same virtual completion time, same task
//! firing counts) — the determinism claim of `netsim::sched`.

use std::collections::BTreeMap;
use std::time::Duration;

use drivolution_bootloader::LifecyclePolicy;
use drivolution_core::DriverVersion;
use fleet::{FleetSim, SimSpec};
use netsim::TaskControl;

use super::mirror_walked_out;
use crate::kit::{Report, Size};

const ZONES: [&str; 3] = ["zone-a", "zone-b", "zone-c"];
const DRIVER_PADDING: usize = 256 * 1024;
const LEASE_MS: u64 = 600_000; // 10 virtual minutes
const POLL_EVERY: Duration = Duration::from_secs(60);
const POLL_JITTER: Duration = Duration::from_secs(5);
const SAME_ZONE_MS: u64 = 1;
const CROSS_ZONE_MS: u64 = 25;

/// Everything one scenario run produces; two runs must match exactly.
#[derive(Debug, PartialEq, Eq)]
struct RunOutcome {
    time_to_full_upgrade_ms: u64,
    end_clock_ms: u64,
    polls: u64,
    upgrades: u64,
    renewals: u64,
    fallbacks: u64,
    server_requests: u64,
    mirror_beats: u64,
    mirror_beat_failures: u64,
    same_zone_bytes: u64,
    cross_zone_bytes: u64,
    killed_quarantined: bool,
    /// Renewal-burst shape: the most renewal attempts any single
    /// virtual tick absorbed, and how many distinct ticks carried
    /// attempts — the herd the renewal spread is meant to flatten.
    peak_renewals_per_tick: u64,
    renewal_ticks: u64,
}

fn run_scenario(clients: usize) -> RunOutcome {
    let sim = FleetSim::from_spec(SimSpec {
        driver_padding: DRIVER_PADDING,
        lifecycle: LifecyclePolicy::driven(POLL_EVERY).with_jitter(POLL_JITTER),
        zones: &ZONES,
        same_zone_ms: SAME_ZONE_MS,
        cross_zone_ms: CROSS_ZONE_MS,
        ..SimSpec::new(clients, LEASE_MS)
    });
    let t_bootstrap_start = sim.net().clock().now_ms();
    sim.bootstrap_all();
    let t_bootstrap_end = sim.net().clock().now_ms();

    // Publish v2 and schedule the fault as a one-shot task. Each
    // client's auto-renewal timer fires when its lease enters RenewDue
    // (lease*0.9 past its own staggered grant), so the upgrade wave
    // spans the bootstrap window; killing the zone-c mirror at the
    // wave's midpoint lands mid-wave — part of the fleet renews off a
    // live mirror, the rest reroutes (client-side drain while the
    // directory still ranks the corpse, quarantine rerouting after).
    sim.publish(2, DriverVersion::new(2, 0, 0), DRIVER_PADDING, false);
    let net = sim.net().clone();
    let renew_margin = LEASE_MS / 10;
    let kill_at = (t_bootstrap_start + t_bootstrap_end) / 2 + LEASE_MS - renew_margin;
    sim.net()
        .scheduler()
        .once_at(kill_at, "kill mirror-zone-c", move || {
            net.with_faults(|f| f.take_down("mirror-zone-c"));
            Ok(TaskControl::Done)
        });

    let r = sim.run_until_upgraded(60_000, 4 * LEASE_MS);
    assert!(
        (sim.fraction_on(DriverVersion::new(2, 0, 0)) - 1.0).abs() < f64::EPSILON,
        "fleet did not converge"
    );

    // Keep pumping past the quarantine threshold: the directory must
    // walk the silent mirror out of plans purely from observed silence.
    let now = sim.net().clock().now_ms();
    sim.net().run_until(now + 30_000);
    let killed_quarantined = mirror_walked_out(&sim, "mirror-zone-c:1071");

    let stats: Vec<_> = sim.clients().iter().map(|c| c.stats()).collect();
    let mirror_beats: u64 = sim
        .mirrors()
        .iter()
        .filter_map(|m| m.heartbeat_task())
        .map(|t| t.stats().runs)
        .sum();

    // Bucket every client's renewal attempts by virtual tick: the peak
    // bucket is the renewal burst hitting the server at one instant.
    let mut per_tick: BTreeMap<u64, u64> = BTreeMap::new();
    for t in sim.clients().iter().flat_map(|c| c.take_renewal_times()) {
        *per_tick.entry(t).or_default() += 1;
    }

    RunOutcome {
        time_to_full_upgrade_ms: r.time_to_full_upgrade_ms,
        end_clock_ms: sim.net().clock().now_ms(),
        polls: r.polls,
        upgrades: stats.iter().map(|s| s.upgrades).sum(),
        renewals: stats.iter().map(|s| s.renewals).sum(),
        fallbacks: stats.iter().map(|s| s.mirror_fallbacks).sum(),
        server_requests: r.server_requests,
        mirror_beats,
        mirror_beat_failures: sim.mirror_heartbeat_failures().iter().map(|(_, n)| n).sum(),
        same_zone_bytes: stats.iter().map(|s| s.same_zone_chunk_bytes).sum(),
        cross_zone_bytes: stats.iter().map(|s| s.cross_zone_chunk_bytes).sum(),
        killed_quarantined,
        peak_renewals_per_tick: per_tick.values().copied().max().unwrap_or(0),
        renewal_ticks: per_tick.len() as u64,
    }
}

/// Runs the scenario.
pub fn run(size: Size) -> Report {
    let clients = size.pick(12, 50);
    let a = run_scenario(clients);
    let b = run_scenario(clients);
    let deterministic = a == b;
    let failed_upgrades = clients as u64 - a.upgrades.min(clients as u64);

    let mut r = Report::new("sched");
    r.set("clients", clients);
    r.set("zones", ZONES.len());
    r.set("lease_ms", LEASE_MS);
    r.set("poll_every_ms", POLL_EVERY.as_millis() as u64);
    r.set("poll_jitter_ms", POLL_JITTER.as_millis() as u64);
    // Everything is a scheduler task: no manual heartbeat/poll call.
    r.set("manual_lifecycle_calls", 0u64);
    r.set("time_to_full_upgrade_ms", a.time_to_full_upgrade_ms);
    r.set("maintenance_passes", a.polls);
    r.set("upgrades", a.upgrades);
    r.set("renewals", a.renewals);
    r.set("failed_upgrades", failed_upgrades);
    r.set("primary_fallbacks", a.fallbacks);
    r.set("server_requests", a.server_requests);
    r.set("mirror_heartbeats", a.mirror_beats);
    r.set("mirror_heartbeat_failures", a.mirror_beat_failures);
    r.set("same_zone_chunk_bytes", a.same_zone_bytes);
    r.set("cross_zone_chunk_bytes", a.cross_zone_bytes);
    r.set("killed_mirror_quarantined", a.killed_quarantined);
    r.set("peak_renewals_per_tick", a.peak_renewals_per_tick);
    r.set("renewal_ticks", a.renewal_ticks);
    r.set("deterministic_replay", deterministic);

    let g = &mut r.gates;
    g.require(
        a.upgrades >= clients as u64,
        format!("{failed_upgrades} clients failed to upgrade under scheduler driving"),
    );
    g.require(
        a.time_to_full_upgrade_ms <= LEASE_MS + 2 * 60_000,
        format!(
            "propagation {} ms exceeds one lease plus poll slack",
            a.time_to_full_upgrade_ms
        ),
    );
    g.require(
        a.fallbacks == 0,
        format!(
            "{} primary fallbacks despite surviving mirrors",
            a.fallbacks
        ),
    );
    g.require(
        a.mirror_beat_failures > 0,
        "dead mirror's heartbeat failures were swallowed",
    );
    g.require(
        a.cross_zone_bytes > 0,
        "no cross-zone chunk bytes — the mid-wave kill never forced a drain",
    );
    g.require(
        a.killed_quarantined,
        "killed mirror was not quarantined from observed silence",
    );
    // The renewal spread must keep the herd flattened: no single tick
    // may absorb more than a sliver of the fleet's renewal attempts.
    let burst_limit = (clients as u64 / 10).max(2);
    g.require(
        a.peak_renewals_per_tick <= burst_limit,
        format!(
            "renewal burst of {} per tick exceeds {burst_limit} — the spread stopped flattening",
            a.peak_renewals_per_tick
        ),
    );
    g.require(
        deterministic,
        format!("replay diverged — scheduler is not deterministic:\n  a={a:?}\n  b={b:?}"),
    );
    r
}
