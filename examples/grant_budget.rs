//! Stage budgets of the server's grant path over the public API, per
//! entry. First a `RENEW_BATCH` in the `delta_rollout` shape (a batched
//! rollout fleet, v2 published staged, a rollout attached, every lease
//! due) collected into one frame; then one lone `RENEW` per client in the
//! `renew_storm` shape (unbatched clients, one driver under a full licence
//! table, every lease due). For each: the whole `Service::call`, then its
//! parts each timed alone over every entry: decode, reply encode, and the
//! grant path's statements and seat. The statements are timed as if asked
//! per entry, which the server no longer does: its grant memo answers
//! Sample code 1 and Sample code 2 until their tables change. Fastest of
//! N, µs per entry. Prints; gates nothing (wall-clock on a shared box).
//!
//! Run with: `cargo run --release --example grant_budget [-- <clients> <reps>]`

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use drivolution::core::proto::{DrvMsg, DrvRequest};
use drivolution::core::{ClientIdentity, DriverQuery};
use drivolution::fleet::{FleetSim, SimSpec, DEFAULT_POLL_EVERY};
use drivolution::netsim::Service;
use drivolution::prelude::{
    Addr, DriverId, DriverVersion, DrivolutionServer, LifecyclePolicy, RolloutConfig, RolloutPlan,
};

const LEASE_MS: u64 = 10 * 60 * 1000;
const PADDING: usize = 64 * 1024;

/// Fastest of `reps` runs of `stage` in µs.
fn fastest<T>(reps: usize, mut stage: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            let out = black_box(stage());
            let us = t.elapsed().as_secs_f64() * 1e6;
            drop(out);
            us
        })
        .fold(f64::INFINITY, f64::min)
}

fn query(host: &str, req: &DrvRequest) -> DriverQuery {
    DriverQuery {
        identity: ClientIdentity::new(&req.user, host, &req.database),
        api_name: req.api_name.clone(),
        api_version: req.api_version,
        client_platform: req.client_platform.clone(),
        preferred_format: req.preferred_format,
        preferred_version: req.preferred_version,
    }
}

/// Every due renewal of `sim`'s clients, once the leases ran out.
fn due_entries(sim: &FleetSim) -> Vec<(String, DrvRequest)> {
    sim.net().clock().advance_ms(LEASE_MS);
    sim.clients()
        .iter()
        .filter_map(|c| c.batch_renewal_entry())
        .collect()
}

/// The grant path's statements and seat, each timed alone over every
/// entry: Sample code 1 and Sample code 2 as if asked per entry, the
/// lease INSERT, the licence acquire.
fn grant_stages(
    srv: &DrivolutionServer,
    entries: &[(String, DrvRequest)],
    now: u64,
    reps: usize,
) -> Vec<(&'static str, f64)> {
    let store = srv.store();
    let queries: Vec<DriverQuery> = entries.iter().map(|(h, r)| query(h, r)).collect();
    vec![
        (
            "  Sample code 1, per entry",
            fastest(reps, || {
                for q in &queries {
                    black_box(store.matching_drivers(q).expect("runs"));
                }
            }),
        ),
        (
            "  Sample code 2, per entry",
            fastest(reps, || {
                for q in &queries {
                    black_box(store.permitted(&q.identity).expect("runs"));
                }
            }),
        ),
        (
            "  lease INSERT",
            fastest(reps, || {
                for q in &queries {
                    store
                        .log_lease(&q.identity, DriverId(1), now as i64, LEASE_MS as i64)
                        .expect("runs");
                }
            }),
        ),
        (
            "  licence acquire",
            fastest(reps, || {
                for (host, req) in entries {
                    srv.licenses()
                        .acquire(DriverId(1), &req.user, host, LEASE_MS, now)
                        .expect("a seat per client");
                }
            }),
        ),
    ]
}

fn print(title: &str, n: usize, reps: usize, stages: &[(&str, f64)]) {
    println!("{title}, fastest of {reps}, µs per entry");
    for (name, us) in stages {
        println!("{name:<30} {:>9.2}", us / n as f64);
    }
}

/// One `RENEW_BATCH` of every due client of a `delta_rollout`-shaped
/// fleet.
fn rollout_batch(clients: usize, reps: usize) {
    let sim = FleetSim::build_rollout_batched(clients, LEASE_MS, PADDING);
    sim.bootstrap_all();
    sim.publish_staged(2, DriverVersion::new(2, 0, 0), PADDING);
    let plan = RolloutPlan {
        canary: clients / 10,
        wave_pcts: vec![10, 30],
    };
    sim.start_rollout(DriverId(1), DriverId(2), &plan, RolloutConfig::default());
    let entries = due_entries(&sim);
    let n = entries.len();
    let frame = DrvMsg::RenewBatch {
        entries: entries.clone(),
    }
    .encode();

    let srv = sim.server();
    let aggregator = Addr::new("agg-default", 1);
    let call = |frame: Bytes| srv.call(&aggregator, frame).expect("the server answers");
    let reply = DrvMsg::decode(call(frame.clone())).expect("an OFFER_BATCH");

    let mut stages = vec![
        ("Service::call", fastest(reps, || call(frame.clone()))),
        (
            "  decode",
            fastest(reps, || DrvMsg::decode(frame.clone()).expect("decodes")),
        ),
        ("  reply encode", fastest(reps, || reply.encode())),
    ];
    stages.extend(grant_stages(
        srv,
        &entries,
        sim.net().clock().now_ms(),
        reps,
    ));
    stages.push((
        "  record (rollout target)",
        fastest(reps, || {
            for _ in &entries {
                black_box(srv.store().record(DriverId(2)).expect("installed"));
            }
        }),
    ));
    print(
        &format!("one RENEW_BATCH of {n} entries ({clients} clients, v2 staged, rollout attached)"),
        n,
        reps,
        &stages,
    );
}

/// One lone `RENEW` from every client of a `renew_storm`-shaped fleet.
fn storm_renewals(clients: usize, reps: usize) {
    let sim = FleetSim::from_spec(SimSpec {
        lifecycle: LifecyclePolicy::driven(DEFAULT_POLL_EVERY),
        ..SimSpec::new(clients, LEASE_MS)
    });
    sim.server().licenses().set_limit(DriverId(1), clients);
    sim.bootstrap_all();
    let entries = due_entries(&sim);
    let n = entries.len();
    let frames: Vec<(Addr, Bytes)> = entries
        .iter()
        .map(|(host, req)| {
            (
                Addr::new(host.clone(), 1),
                DrvMsg::Request(req.clone()).encode(),
            )
        })
        .collect();

    let srv = sim.server();
    let call_all = || {
        frames
            .iter()
            .map(|(from, frame)| srv.call(from, frame.clone()).expect("the server answers"))
            .collect::<Vec<_>>()
    };
    let replies: Vec<DrvMsg> = call_all()
        .into_iter()
        .map(|r| DrvMsg::decode(r).expect("an OFFER"))
        .collect();

    let mut stages = vec![
        ("Service::call", fastest(reps, call_all)),
        (
            "  decode",
            fastest(reps, || {
                for (_, frame) in &frames {
                    black_box(DrvMsg::decode(frame.clone()).expect("decodes"));
                }
            }),
        ),
        (
            "  reply encode",
            fastest(reps, || {
                for reply in &replies {
                    black_box(reply.encode());
                }
            }),
        ),
    ];
    stages.extend(grant_stages(
        srv,
        &entries,
        sim.net().clock().now_ms(),
        reps,
    ));
    print(
        &format!("{n} lone RENEWs ({clients} unbatched clients, one driver, seats full)"),
        n,
        reps,
        &stages,
    );
}

fn main() {
    let mut args = std::env::args().skip(1).map(|a| a.parse::<usize>());
    let clients = args.next().and_then(Result::ok).unwrap_or(2000).max(10);
    let reps = args.next().and_then(Result::ok).unwrap_or(20).max(1);
    rollout_batch(clients, reps);
    println!();
    storm_renewals(clients, reps);
}
