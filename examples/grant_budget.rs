//! Stage budgets of the server's grant path over the public API, per
//! entry. First a `RENEW_BATCH` in the `delta_rollout` shape (a batched
//! rollout fleet, v2 published staged, a rollout attached, every lease
//! due) collected into one frame; then one lone `RENEW` per client in the
//! `renew_storm` shape (unbatched clients, one driver under a full licence
//! table, every lease due). For each: the whole `Service::call`, then its
//! parts each timed alone over every entry: decode, reply encode, and the
//! grant path's statements and seat. The statements are timed as if asked
//! per entry, which the server no longer does: its grant memo answers
//! Sample code 1 and Sample code 2 until their tables change. The same
//! clients then renew by reference (`RENEW_REF` → `RENEWED`, each host's
//! request already kept): the whole call, its decode, the grant path
//! (`DrivolutionServer::handle`) and the reply encode. Last, one
//! `RenewalAggregator::tick` over the same batched fleet with every lease
//! due, split into the asks, the frame, the server and the apply, and a
//! tick with nothing due. Fastest of N, µs per entry. Prints; gates
//! nothing (wall-clock on a shared box).
//!
//! Run with: `cargo run --release --example grant_budget [-- <clients> <reps>]`

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use drivolution::core::proto::{DrvMsg, DrvRequest};
use drivolution::core::{ClientIdentity, DriverQuery};
use drivolution::fleet::{FleetSim, SimSpec, DEFAULT_POLL_EVERY};
use drivolution::netsim::Service;
use drivolution::prelude::{
    Addr, DriverId, DriverVersion, DrivolutionServer, LifecyclePolicy, RolloutConfig, RolloutPlan,
    DRIVOLUTION_PORT,
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
fn due_entries(sim: &FleetSim) -> Vec<(String, Arc<DrvRequest>)> {
    sim.net().clock().advance_ms(LEASE_MS);
    sim.clients()
        .iter()
        .filter_map(|c| c.batch_renewal_entry())
        .collect()
}

/// The grant path's statements and seat, each timed alone over every
/// entry: Sample code 1 and Sample code 2 as if asked per entry, the
/// lease write for a binding that has its row (a renewal) and for one
/// that has none yet (a first grant), the licence acquire.
fn grant_stages(
    srv: &DrivolutionServer,
    entries: &[(String, Arc<DrvRequest>)],
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
            "  lease write, renewal",
            fastest(reps, || {
                for q in &queries {
                    store
                        .log_lease(&q.identity, DriverId(1), now as i64, LEASE_MS as i64)
                        .expect("runs");
                }
            }),
        ),
        ("  lease write, first grant", {
            // A binding of its own per entry and run: each write inserts.
            let fresh: Vec<Vec<ClientIdentity>> = (0..reps)
                .map(|run| {
                    let who = |q: &DriverQuery| {
                        let host = format!("{}-{run}", q.identity.client_ip);
                        ClientIdentity::new(&*q.identity.user, host, &*q.identity.database)
                    };
                    queries.iter().map(who).collect()
                })
                .collect();
            let mut runs = fresh.iter();
            fastest(reps, || {
                for who in runs.next().expect("one set per run") {
                    store
                        .log_lease(who, DriverId(1), now as i64, LEASE_MS as i64)
                        .expect("runs");
                }
            })
        }),
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
                DrvMsg::Request(DrvRequest::clone(req)).encode(),
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
    println!();
    by_reference(srv, &entries, reps);
}

/// The same renewals by reference: every host's request is kept, so each
/// sends `RENEW_REF` and draws `RENEWED`.
fn by_reference(srv: &DrivolutionServer, entries: &[(String, Arc<DrvRequest>)], reps: usize) {
    let msgs: Vec<(Addr, DrvMsg)> = entries
        .iter()
        .map(|(host, req)| {
            let by_ref = DrvMsg::RenewRef {
                current: DriverId(1),
                token: req.context_digest(),
            };
            (Addr::new(host.clone(), 1), by_ref)
        })
        .collect();
    let frames: Vec<(&Addr, Bytes)> = msgs.iter().map(|(from, m)| (from, m.encode())).collect();
    let handle_all = || {
        msgs.iter()
            .map(|(from, m)| srv.handle(from, m.clone()))
            .collect::<Vec<_>>()
    };
    let replies = handle_all();
    assert!(replies.iter().all(|r| matches!(r, DrvMsg::Renewed(_))));
    let stages = [
        (
            "Service::call",
            fastest(reps, || {
                for (from, frame) in &frames {
                    black_box(srv.call(from, frame.clone()).expect("the server answers"));
                }
            }),
        ),
        (
            "  decode",
            fastest(reps, || {
                for (_, frame) in &frames {
                    black_box(DrvMsg::decode(frame.clone()).expect("decodes"));
                }
            }),
        ),
        ("  grant (handle)", fastest(reps, handle_all)),
        (
            "  reply encode",
            fastest(reps, || {
                for reply in &replies {
                    black_box(reply.encode());
                }
            }),
        ),
    ];
    let n = msgs.len();
    print(
        &format!("{n} lone RENEWs by reference (the same clients, each request kept)"),
        n,
        reps,
        &stages,
    );
}

/// One `RenewalAggregator::tick` of a `delta_rollout`-shaped fleet (v1
/// only: every due client renews the driver it runs), whole and in the
/// stages it runs: ask each due client for its entry, encode the
/// `RENEW_BATCH` and decode the `OFFER_BATCH`, the server's
/// `Service::call`, apply each reply; then a tick with nothing due, per
/// client.
fn aggregator_tick(clients: usize, reps: usize) {
    let sim = FleetSim::build_rollout_batched(clients, LEASE_MS, PADDING);
    sim.bootstrap_all();
    let agg = sim.aggregators().first().expect("a batched fleet has one");
    let clock = sim.net().clock();
    let tick = fastest(reps, || {
        clock.advance_ms(LEASE_MS);
        agg.tick()
    });

    clock.advance_ms(LEASE_MS);
    let asks = || {
        sim.clients()
            .iter()
            .filter_map(|c| c.batch_renewal_entry())
            .collect::<Vec<_>>()
    };
    let batch = DrvMsg::RenewBatch { entries: asks() };
    let frame = batch.encode();
    let srv = sim.server();
    let aggregator = Addr::new("agg-default", 1);
    let reply = srv
        .call(&aggregator, frame.clone())
        .expect("the server answers");
    let Ok(DrvMsg::OfferBatch { replies }) = DrvMsg::decode(reply.clone()) else {
        panic!("expected an OFFER_BATCH");
    };
    let n = replies.len();
    let drv = Addr::new("db1", DRIVOLUTION_PORT);
    let mut reply_sets: Vec<_> = (0..reps).map(|_| replies.clone()).collect();
    let stages = [
        ("RenewalAggregator::tick", tick),
        ("  asks", fastest(reps, asks)),
        (
            "  frame (encode + decode)",
            fastest(reps, || {
                black_box(batch.encode());
                DrvMsg::decode(reply.clone()).expect("decodes")
            }),
        ),
        (
            "  server (Service::call)",
            fastest(reps, || {
                srv.call(&aggregator, frame.clone()).expect("answers")
            }),
        ),
        (
            "  apply",
            fastest(reps, || {
                let set = reply_sets.pop().unwrap_or_default();
                for (client, reply) in sim.clients().iter().zip(set) {
                    black_box(client.apply_batch_offer(&drv, &reply));
                }
            }),
        ),
    ];
    print(
        &format!("one RenewalAggregator::tick of {n} due renewals ({clients} clients, v1 only)"),
        n,
        reps,
        &stages,
    );
    let idle = fastest(reps, || agg.tick());
    println!(
        "a tick with nothing due: {:.1} ns per client",
        idle * 1e3 / clients as f64
    );
}

fn main() {
    let mut args = std::env::args().skip(1).map(|a| a.parse::<usize>());
    let clients = args.next().and_then(Result::ok).unwrap_or(2000).max(10);
    let reps = args.next().and_then(Result::ok).unwrap_or(20).max(1);
    rollout_batch(clients, reps);
    println!();
    storm_renewals(clients, reps);
    println!();
    aggregator_tick(clients, reps);
}
