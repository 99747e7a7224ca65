//! The license seat table under a renewal storm, and batched lease
//! traffic.
//!
//! Two checks behind the 10k-client fast path:
//!
//! 1. **Renewal in place** — a renewal storm (every host of a fully
//!    seated fleet renews, repeatedly) against one [`LicenseManager`]:
//!    every renewal grants, zero denials at full occupancy.
//! 2. **Frame reduction** — the same fleet run unbatched (one
//!    `DRIVOLUTION_REQUEST` frame per client per renewal) and batched
//!    (per-zone aggregator coalescing same-tick renewals into
//!    `RENEW_BATCH` frames) over identical virtual steady-state
//!    windows. The server must see at least 10× fewer frames on the
//!    batched shape; this count is deterministic, so it is a hard gate.

use drivolution_core::DriverId;
use drivolution_server::LicenseManager;
use fleet::{FleetSim, SimSpec};

use super::MINUTE;
use crate::kit::{Report, Size};

const LEASE_MS: u64 = 10 * MINUTE;
const DRIVER_PADDING: usize = 16 * 1024;
const CYCLES: u64 = 3;

/// Fully seats a fleet of `hosts` clients, then drives `rounds` renewal
/// storms (every host renews its own seat, lease half-expired) with a
/// maintenance prune between rounds — the server's steady-state shape.
/// Returns the denied renewals.
fn run_license_storm(hosts: usize, rounds: usize) -> u64 {
    const D: DriverId = DriverId(1);
    let lm = LicenseManager::new();
    lm.set_limit(D, hosts);
    for h in 0..hosts {
        lm.acquire(D, "app", &format!("host-{h:05}"), LEASE_MS, 0)
            .expect("initial checkout within the limit");
    }

    let mut denials = 0u64;
    for r in 1..=rounds {
        let now = r as u64 * (LEASE_MS / 2);
        for h in 0..hosts {
            let renewed = lm.acquire(D, "app", &format!("host-{h:05}"), LEASE_MS, now);
            denials += u64::from(renewed.is_err());
        }
        // Maintenance runs between storms, never inside one — mirroring
        // the server's scheduled prune task.
        lm.prune_expired(now);
    }
    denials
}

struct FrameTrace {
    frames: u64,
    renewals: u64,
    batch_frames: u64,
}

/// Runs `CYCLES` lease windows of steady-state maintenance and reports
/// the frames the Drivolution server actually received.
fn run_fleet(batched: bool, clients: usize) -> FrameTrace {
    let sim = FleetSim::from_spec(SimSpec {
        driver_padding: DRIVER_PADDING,
        checked: true,
        batched,
        ..SimSpec::new(clients, LEASE_MS)
    });
    sim.bootstrap_all();
    let before = sim.server().stats();
    let steady = sim.run_steady_state(MINUTE, CYCLES * LEASE_MS);
    let after = sim.server().stats();
    FrameTrace {
        frames: steady.server_requests,
        renewals: after.renewals - before.renewals,
        batch_frames: after.batch_frames - before.batch_frames,
    }
}

/// Runs the scenario.
pub fn run(size: Size) -> Report {
    let (hosts, rounds) = size.pick((1_000, 5), (10_000, 20));
    let fleet_clients = size.pick(120, 400);
    let expected = (hosts * rounds) as u64;

    let mut r = Report::new("shard");
    r.set("hosts", hosts);
    r.set("rounds", rounds);
    let denials = run_license_storm(hosts, rounds);
    let renewals = expected - denials;
    r.gates.require(
        denials == 0,
        format!("{denials} renewals denied — renewal-in-place broke"),
    );
    r.gates.require(
        renewals == expected,
        format!("expected {expected} renewals, granted {renewals}"),
    );
    r.set("license_renewals", renewals);
    r.set("license_denials", denials);

    let unbatched = run_fleet(false, fleet_clients);
    let batched = run_fleet(true, fleet_clients);
    r.set("fleet_clients", fleet_clients);
    r.set("lease_cycles", CYCLES);
    r.set("unbatched_frames", unbatched.frames);
    r.set("unbatched_renewals", unbatched.renewals);
    r.set("batched_frames", batched.frames);
    r.set("batched_renewals", batched.renewals);
    r.set("batch_frames", batched.batch_frames);
    r.gates.require(
        batched.renewals > 0 && batched.batch_frames > 0,
        "batched fleet produced no RENEW_BATCH traffic",
    );
    r.gates.require(
        batched.frames * 10 <= unbatched.frames,
        format!(
            "batching only cut server frames from {} to {} (need ≥10×)",
            unbatched.frames, batched.frames
        ),
    );
    r
}
