//! The license seat table under a renewal storm, and batched lease
//! traffic.
//!
//! Two checks behind the 10k-client fast path:
//!
//! 1. **Renewal in place** — a renewal storm (every host of a fully
//!    seated fleet renews, repeatedly) against one [`LicenseManager`]:
//!    every renewal grants, zero denials at full occupancy.
//! 2. **Frame reduction** — the same fleet run unbatched (one frame per
//!    client per renewal) and batched (per-zone aggregator coalescing
//!    same-tick renewals into `RENEW_BATCH` frames) over identical
//!    virtual steady-state windows. The server must see at least 10×
//!    fewer frames on the batched shape, and ship at most a quarter of
//!    the bytes per granted renewal that lone renewals sending their
//!    full `DRIVOLUTION_REQUEST` ship (a batch frame carries each
//!    distinct request and reply once). Lone renewals by reference
//!    (`RENEW_REF`, the default) must keep one frame per renewal and
//!    ship at most half the bytes of full ones. These counts are
//!    deterministic, so they are hard gates.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use drivolution_core::proto::DrvMsg;
use drivolution_core::DriverId;
use drivolution_server::LicenseManager;
use fleet::{FleetSim, SimSpec};
use netsim::{Addr, FnService, NetError, Service};

use super::MINUTE;
use crate::kit::{Report, Size, Value};

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
    bytes: u64,
    renewals: u64,
    batch_frames: u64,
}

impl FrameTrace {
    /// Bytes to and from the server per granted renewal.
    fn bytes_per_renewal(&self) -> f64 {
        self.bytes as f64 / self.renewals.max(1) as f64
    }
}

/// How the fleet's clients renew.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Renewals {
    /// Through per-zone aggregators, in `RENEW_BATCH` frames.
    Batched,
    /// Alone, by reference once the server holds their request.
    ByReference,
    /// Alone, each with its full request.
    FullRequests,
}

/// Runs `CYCLES` lease windows of steady-state maintenance and reports
/// the frames the Drivolution server actually received.
///
/// For [`Renewals::FullRequests`] the server is put behind a front that
/// refuses `RENEW_REF` as undecodable, as a server from before that frame
/// does: each client's first reference is refused and it renews in full
/// from then on. The refused frames are taken back out of the trace.
fn run_fleet(renewals: Renewals, clients: usize) -> FrameTrace {
    let sim = FleetSim::from_spec(SimSpec {
        driver_padding: DRIVER_PADDING,
        checked: true,
        batched: renewals == Renewals::Batched,
        ..SimSpec::new(clients, LEASE_MS)
    });
    sim.bootstrap_all();
    // The frames and the bytes the front refused.
    let refused = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    if renewals == Renewals::FullRequests {
        let (srv, counts) = (Arc::clone(sim.server()), Arc::clone(&refused));
        let by_ref = DrvMsg::RenewRef {
            current: DriverId(0),
            token: 0,
        }
        .encode()[0];
        let front = FnService::new(move |from: &Addr, request| {
            if request.first() != Some(&by_ref) {
                return srv.call(from, request);
            }
            counts[0].fetch_add(1, Relaxed);
            counts[1].fetch_add(request.len() as u64, Relaxed);
            Err(NetError::Protocol(format!("unknown drv msg tag {by_ref}")))
        });
        let at = sim.server_addr().clone();
        sim.net().unbind(&at);
        sim.net()
            .bind_arc(at, Arc::new(front))
            .expect("the server's address was just freed");
    }
    let before = sim.server().stats();
    let steady = sim.run_steady_state(MINUTE, CYCLES * LEASE_MS);
    let after = sim.server().stats();
    FrameTrace {
        frames: steady.server_requests - refused[0].load(Relaxed),
        bytes: steady.server_bytes - refused[1].load(Relaxed),
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

    let unbatched = run_fleet(Renewals::FullRequests, fleet_clients);
    let by_ref = run_fleet(Renewals::ByReference, fleet_clients);
    let batched = run_fleet(Renewals::Batched, fleet_clients);
    r.set("fleet_clients", fleet_clients);
    r.set("lease_cycles", CYCLES);
    r.set("unbatched_frames", unbatched.frames);
    r.set("unbatched_renewals", unbatched.renewals);
    r.set("batched_frames", batched.frames);
    r.set("batched_renewals", batched.renewals);
    r.set("batch_frames", batched.batch_frames);
    let per_renewal = |t: &FrameTrace| Value::Float(t.bytes_per_renewal(), 2);
    r.set("unbatched_bytes_per_renewal", per_renewal(&unbatched));
    r.set("by_reference_bytes_per_renewal", per_renewal(&by_ref));
    r.set("batched_bytes_per_renewal", per_renewal(&batched));
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
    r.gates.require(
        batched.bytes_per_renewal() * 4.0 <= unbatched.bytes_per_renewal(),
        format!(
            "batching only cut server bytes per renewal from {:.2} to {:.2} (need ≥4×)",
            unbatched.bytes_per_renewal(),
            batched.bytes_per_renewal()
        ),
    );
    r.gates.require(
        by_ref.frames == unbatched.frames && by_ref.renewals == unbatched.renewals,
        format!(
            "renewals by reference took {} frames for {} renewals, full ones {} for {}",
            by_ref.frames, by_ref.renewals, unbatched.frames, unbatched.renewals
        ),
    );
    r.gates.require(
        by_ref.bytes_per_renewal() * 2.0 <= unbatched.bytes_per_renewal(),
        format!(
            "renewal by reference only cut server bytes per renewal from {:.2} to {:.2} (need ≥2×)",
            unbatched.bytes_per_renewal(),
            by_ref.bytes_per_renewal()
        ),
    );
    r
}
