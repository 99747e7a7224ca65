//! Staged-rollout regression tests: rolling a fleet back to the prior
//! driver version must move **zero chunk bytes** — every client still
//! holds the prior image in its depot, so the server answers each
//! rollback renewal with a zero-transfer revalidation, never a download
//! or a chunked delta. Stranding a client or re-fetching bytes it
//! already has would defeat the point of halting a bad rollout fast.

use std::time::Duration;

use drivolution::fleet::{FleetSim, SimSpec};
use drivolution::prelude::*;
use drivolution::server::{RolloutConfig, RolloutPhase, RolloutPlan};

const MINUTE: u64 = 60_000;
const PADDING: usize = 16 * 1024;

/// A rollout fleet: depot, activation reports and the injectable
/// self-check on every client.
fn checked(clients: usize) -> FleetSim {
    FleetSim::from_spec(SimSpec {
        driver_padding: PADDING,
        checked: true,
        ..SimSpec::new(clients, 5 * MINUTE)
    })
}

fn v1() -> DriverVersion {
    DriverVersion::new(1, 0, 0)
}

fn v2() -> DriverVersion {
    DriverVersion::new(2, 0, 0)
}

fn plan() -> RolloutPlan {
    RolloutPlan {
        canary: 1,
        wave_pcts: vec![20, 30],
    }
}

fn config() -> RolloutConfig {
    RolloutConfig {
        evaluate_every: Duration::from_secs(30),
        observe: Duration::from_secs(8 * 60),
        min_reports: 1,
        ..RolloutConfig::default()
    }
}

/// `fetches - 1 == revalidations` for every client: one paid transfer
/// per distinct version ever activated (bootstrap plus at most one bad
/// upgrade), and every return to the prior version satisfied from the
/// depot. Any violation means rollback re-transferred bytes.
fn assert_zero_transfer_rollbacks(sim: &FleetSim) {
    for (i, client) in sim.clients().iter().enumerate() {
        let s = client.stats();
        let fetches = s.downloads + s.delta_downloads;
        assert_eq!(
            s.revalidations,
            fetches - 1,
            "client {i}: {} paid transfers but {} revalidations — \
             a rollback re-fetched bytes the depot already held",
            fetches,
            s.revalidations
        );
    }
}

#[test]
fn canary_rollback_to_depot_held_version_is_zero_transfer() {
    let sim = checked(10);
    sim.bootstrap_all();
    sim.publish_staged(2, v2(), PADDING);
    // Regression live from the start: only the canary ever activates
    // the bad driver, and it must come back without a byte moving.
    sim.inject_activation_fault(Some(v2()));
    let ro = sim.start_rollout(DriverId(1), DriverId(2), &plan(), config());

    sim.run_steady_state(MINUTE, 30 * MINUTE);

    assert!(
        matches!(
            ro.status().phase,
            RolloutPhase::RolledBack { failed_wave: 0 }
        ),
        "{:?}",
        ro.status()
    );
    assert_eq!(sim.count_on(v1()), 10, "no stranded clients");

    assert_zero_transfer_rollbacks(&sim);
    let total_revalidations: u64 = sim.clients().iter().map(|c| c.stats().revalidations).sum();
    assert_eq!(
        total_revalidations, 1,
        "exactly the canary rolled back, via the depot"
    );
    let total_saved: u64 = sim.clients().iter().map(|c| c.stats().bytes_saved).sum();
    assert!(
        total_saved >= PADDING as u64,
        "the revalidated image's bytes were counted as saved"
    );
}

#[test]
fn mid_wave_halt_rolls_everyone_back_without_refetching() {
    let sim = checked(12);
    sim.bootstrap_all();
    sim.publish_staged(2, v2(), PADDING);
    let ro = sim.start_rollout(DriverId(1), DriverId(2), &plan(), config());

    // Let the rollout get past the canary: pump until at least two
    // clients run the new version, so the regression lands mid-wave
    // with upgraded clients spread across waves.
    let deadline = sim.net().clock().now_ms() + 4 * 60 * MINUTE;
    while sim.count_on(v2()) < 2 {
        let now = sim.net().clock().now_ms();
        assert!(now < deadline, "rollout never reached a second client");
        sim.net().run_until(now + MINUTE);
    }
    let upgraded_before_fault = sim.count_on(v2());
    sim.inject_activation_fault(Some(v2()));

    sim.run_steady_state(MINUTE, 60 * MINUTE);

    let st = ro.status();
    assert!(
        matches!(st.phase, RolloutPhase::RolledBack { .. }),
        "{st:?}"
    );
    assert_eq!(sim.count_on(v1()), 12, "no stranded clients after halt");
    assert_eq!(sim.count_on(v2()), 0);

    assert_zero_transfer_rollbacks(&sim);
    let total_revalidations: u64 = sim.clients().iter().map(|c| c.stats().revalidations).sum();
    assert!(
        total_revalidations >= upgraded_before_fault as u64,
        "every client that activated the new version ({upgraded_before_fault}+) \
         rolled back through its depot, got {total_revalidations}"
    );

    // Once settled, the fleet stays put: further lease maintenance
    // triggers no downloads and no further revalidations.
    let settled: Vec<_> = sim
        .clients()
        .iter()
        .map(|c| {
            let s = c.stats();
            (s.downloads, s.delta_downloads, s.revalidations)
        })
        .collect();
    sim.run_steady_state(MINUTE, 30 * MINUTE);
    for (i, client) in sim.clients().iter().enumerate() {
        let s = client.stats();
        assert_eq!(
            (s.downloads, s.delta_downloads, s.revalidations),
            settled[i],
            "client {i} moved bytes after the rollback settled"
        );
    }
}
