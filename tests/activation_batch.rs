//! Activation reports through a renewal aggregator. The reports of the
//! clients one tick upgraded reach the server as one `ACTIVATION_BATCH`,
//! each entry under its own client host, and the rollout sees exactly
//! what lone reports would have shown it. A server from before the frame
//! refuses it as undecodable; the same fleet then reports alone, and its
//! rollout ends the same way. A report no server answered is sent again,
//! in the next tick's batch or alone, so a lost report does not hold a
//! wave open; and a host whose reports never arrive is never counted,
//! whatever driver it renews on.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use bytes::Bytes;

use drivolution::core::proto::DrvMsg;
use drivolution::fleet::{FleetSim, SimSpec};
use drivolution::netsim::{FnService, NetError, Service};
use drivolution::prelude::*;
use drivolution::server::{RolloutStatus, ServerStats};

const MINUTE: u64 = 60_000;
const PADDING: usize = 16 * 1024;
const CLIENTS: usize = 24;

fn v1() -> DriverVersion {
    DriverVersion::new(1, 0, 0)
}

fn v2() -> DriverVersion {
    DriverVersion::new(2, 0, 0)
}

/// What the server's front saw of the activation reports.
#[derive(Debug, Default, PartialEq)]
struct Seen {
    /// Lone `ACTIVATION_REPORT` frames, lost ones included.
    lone: u64,
    /// `ACTIVATION_BATCH` frames, refused and lost ones included.
    batches: u64,
    /// Report frames the front lost.
    lost: u64,
    /// Upgrade offers in the last `OFFER_BATCH` whose reports have not
    /// yet arrived in a batch.
    owed: Option<usize>,
    /// Batches that did not carry one entry per upgrade their tick
    /// offered, or followed no tick that offered one.
    stray: Vec<String>,
    /// Each client host's reports, in arrival order: driver and verdict.
    verdicts: BTreeMap<String, Vec<(DriverId, bool)>>,
}

fn lock(seen: &Mutex<Seen>) -> MutexGuard<'_, Seen> {
    seen.lock().expect("no test thread panicked holding it")
}

/// How a fleet's rollout ended, as the server saw it.
#[derive(Debug, PartialEq)]
struct Outcome {
    phase: RolloutPhase,
    /// Each wave's members, successes and failures.
    waves: Vec<(usize, usize, usize)>,
    reports: u64,
    failures: u64,
    verdicts: BTreeMap<String, Vec<(DriverId, bool)>>,
    on_v1: usize,
    on_v2: usize,
}

/// What the server's front does with an `ACTIVATION_BATCH`.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Batches {
    /// Hands it to the server.
    Taken,
    /// Refuses it as undecodable, as a server from before the frame
    /// does.
    Refused,
}

/// Which report frames (batches it takes, and lone reports) the front
/// loses, as a dropped link does.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Loss {
    None,
    /// The first one.
    First,
    /// Every one.
    All,
}

impl Loss {
    /// Whether the next report frame is lost, `seen` holding what was.
    fn next(self, seen: &mut Seen) -> bool {
        let lost = match self {
            Loss::None => false,
            Loss::First => seen.lost == 0,
            Loss::All => true,
        };
        seen.lost += u64::from(lost);
        lost
    }
}

/// A bootstrapped batched rollout fleet with v2 staged, its server put
/// behind a front that records the reports it is sent, treats an
/// `ACTIVATION_BATCH` as `batches` says and loses report frames as
/// `loss` says.
fn fleet(batches: Batches, loss: Loss) -> (FleetSim, Arc<Mutex<Seen>>) {
    let sim = FleetSim::from_spec(SimSpec {
        driver_padding: PADDING,
        checked: true,
        batched: true,
        ..SimSpec::new(CLIENTS, 5 * MINUTE)
    });
    sim.bootstrap_all();
    sim.publish_staged(2, v2(), PADDING);
    let seen = Arc::new(Mutex::new(Seen::default()));
    let (srv, log) = (Arc::clone(sim.server()), Arc::clone(&seen));
    let front = FnService::new(move |from: &Addr, request: Bytes| {
        let msg = DrvMsg::decode(request.clone()).expect("the fleet sends valid frames");
        match &msg {
            DrvMsg::ActivationReport { driver, ok, .. } => {
                let mut log = lock(&log);
                log.lone += 1;
                if loss.next(&mut log) {
                    return Err(NetError::Timeout("report lost".into()));
                }
                let host = from.host().to_string();
                log.verdicts.entry(host).or_default().push((*driver, *ok));
            }
            DrvMsg::ActivationBatch { entries } => {
                let mut log = lock(&log);
                log.batches += 1;
                match log.owed.take() {
                    Some(owed) if owed == entries.len() => {}
                    owed => {
                        let n = entries.len();
                        log.stray.push(format!("{n} entries for {owed:?} upgrades"));
                    }
                }
                if batches == Batches::Refused {
                    return Err(NetError::Protocol("unknown drv msg tag 20".into()));
                }
                if loss.next(&mut log) {
                    return Err(NetError::Timeout("batch lost".into()));
                }
                for (host, report) in entries {
                    let verdict = (report.driver, report.ok);
                    log.verdicts.entry(host.clone()).or_default().push(verdict);
                }
            }
            _ => {}
        }
        let reply = srv.call(from, request)?;
        if let DrvMsg::RenewBatch { .. } = msg {
            let Ok(DrvMsg::OfferBatch { replies }) = DrvMsg::decode(reply.clone()) else {
                panic!("a RENEW_BATCH is answered with an OFFER_BATCH");
            };
            let upgrades = replies
                .iter()
                .filter(|r| matches!(&***r, Ok(offer) if !offer.same_driver))
                .count();
            if upgrades > 0 {
                let mut log = lock(&log);
                if let Some(owed) = log.owed.replace(upgrades) {
                    log.stray.push(format!("{owed} upgrades never reported"));
                }
            }
        }
        Ok(reply)
    });
    let at = sim.server_addr().clone();
    sim.net().unbind(&at);
    sim.net()
        .bind_arc(at, Arc::new(front))
        .expect("the server's address was just freed");
    (sim, seen)
}

fn rollout(sim: &FleetSim) -> Arc<RolloutOrchestrator> {
    sim.start_rollout(
        DriverId(1),
        DriverId(2),
        &RolloutPlan {
            canary: 2,
            wave_pcts: vec![25, 50],
        },
        RolloutConfig {
            evaluate_every: Duration::from_secs(30),
            observe: Duration::from_secs(8 * 60),
            min_reports: 1,
            ..RolloutConfig::default()
        },
    )
}

/// Pumps the fleet until the rollout leaves its waves or six virtual
/// hours pass, then one more lease so rolled-back clients renew onto the
/// prior driver.
fn settle(sim: &FleetSim, ro: &RolloutOrchestrator) {
    let deadline = sim.net().clock().now_ms() + 6 * 60 * MINUTE;
    while !ro.is_settled() && sim.net().clock().now_ms() < deadline {
        let now = sim.net().clock().now_ms();
        sim.net().run_until(now + MINUTE);
    }
    sim.run_steady_state(MINUTE, 10 * MINUTE);
}

fn outcome(sim: &FleetSim, status: RolloutStatus, seen: &Seen) -> Outcome {
    let ServerStats {
        activation_reports,
        activation_failures,
        ..
    } = sim.server().stats();
    Outcome {
        phase: status.phase,
        waves: (status.waves.iter())
            .map(|w| (w.members, w.ok, w.err))
            .collect(),
        reports: activation_reports,
        failures: activation_failures,
        verdicts: seen.verdicts.clone(),
        on_v1: sim.count_on(v1()),
        on_v2: sim.count_on(v2()),
    }
}

/// Runs one fleet through a rollout; `fault` injects an activation
/// regression for v2 once the canary has upgraded.
fn run(batches: Batches, loss: Loss, fault: bool) -> (Outcome, Seen) {
    let (sim, seen) = fleet(batches, loss);
    let ro = rollout(&sim);
    if fault {
        let deadline = sim.net().clock().now_ms() + 60 * MINUTE;
        while sim.count_on(v2()) < 2 {
            let now = sim.net().clock().now_ms();
            assert!(now < deadline, "the canary never upgraded");
            sim.net().run_until(now + MINUTE);
        }
        sim.inject_activation_fault(Some(v2()));
    }
    settle(&sim, &ro);
    let seen = std::mem::take(&mut *lock(&seen));
    (outcome(&sim, ro.status(), &seen), seen)
}

/// The batched fleet's reports, checked frame by frame: no lone report,
/// and one batch per tick that offered an upgrade, with an entry per
/// upgrade.
fn assert_batched(seen: &Seen) {
    assert_eq!(seen.lone, 0, "a batched client reported alone");
    assert!(seen.batches > 0, "no ACTIVATION_BATCH was sent");
    assert_eq!(seen.stray, Vec::<String>::new());
    assert_eq!(seen.owed, None, "the last upgrading tick sent no reports");
}

/// The fleet behind the refusing front: each refused batch was followed
/// by its reports, alone, one per client host.
fn assert_lone(seen: &Seen, reports: u64) {
    assert!(seen.batches > 0, "the refusing front was never tried");
    assert_eq!(seen.lone, reports, "a refused report was lost");
}

#[test]
fn a_batched_rollout_reports_once_per_upgrading_tick_as_lone_reports_would() {
    let (batched, seen) = run(Batches::Taken, Loss::None, false);
    assert_batched(&seen);
    assert_eq!(batched.phase, RolloutPhase::Complete, "{batched:?}");
    assert_eq!(batched.on_v2, CLIENTS);
    assert_eq!(batched.reports, CLIENTS as u64);
    assert_eq!(batched.failures, 0);
    assert_eq!(batched.verdicts.len(), CLIENTS, "{:?}", batched.verdicts);
    let whole = |&(members, ok, err): &(usize, usize, usize)| ok == members && err == 0;
    assert!(batched.waves.iter().all(whole), "{:?}", batched.waves);

    let (lone, seen) = run(Batches::Refused, Loss::None, false);
    assert_lone(&seen, lone.reports);
    assert_eq!(batched, lone);
}

#[test]
fn a_lost_report_is_sent_again_and_the_rollout_ends_as_if_none_was() {
    for batches in [Batches::Taken, Batches::Refused] {
        let (lost, seen) = run(batches, Loss::First, false);
        assert_eq!(seen.lost, 1, "{batches:?}");
        assert_eq!(lost.phase, RolloutPhase::Complete, "{batches:?}: {lost:?}");
        let (whole, _) = run(batches, Loss::None, false);
        assert_eq!(lost, whole, "{batches:?}");
    }
}

#[test]
fn a_host_whose_reports_never_arrive_is_never_counted_whatever_it_runs() {
    for batches in [Batches::Taken, Batches::Refused] {
        let (lost, seen) = run(batches, Loss::All, true);
        assert!(seen.lost > 0, "{batches:?}: no report was sent");
        assert_eq!(lost.reports, 0, "{batches:?}: a report reached the server");
        // The canary upgraded and renews on v2, but no host passed its
        // check as far as the server knows: the rollout waits.
        assert_eq!(lost.phase, RolloutPhase::Wave(0), "{batches:?}: {lost:?}");
        assert!(
            lost.waves.iter().all(|&(_, ok, err)| ok == 0 && err == 0),
            "{lost:?}"
        );
        assert_eq!(lost.on_v2, 2, "{batches:?}: only the canary upgraded");
    }
}

#[test]
fn a_faulty_version_halts_and_rolls_back_a_batched_fleet_as_a_lone_reporting_one() {
    let (batched, seen) = run(Batches::Taken, Loss::None, true);
    assert_batched(&seen);
    assert!(
        matches!(batched.phase, RolloutPhase::RolledBack { .. }),
        "{batched:?}"
    );
    assert!(batched.failures > 0, "{batched:?}");
    assert_eq!(batched.on_v1, CLIENTS, "a client was stranded on v2");

    let (lone, seen) = run(Batches::Refused, Loss::None, true);
    assert_lone(&seen, lone.reports);
    assert_eq!(batched, lone);
}
