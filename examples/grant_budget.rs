//! Stage budget of one `RENEW_BATCH` on the server, per entry, over the
//! public API: the `delta_rollout` shape (a batched rollout fleet, v2
//! published staged, a rollout attached, every lease due) collected into
//! one frame, then what the server spends on it. First the whole
//! `Service::call`, then its parts each timed alone over every entry of
//! the frame: decode, reply encode, and the grant path's statements and
//! seat. Sample code 1 is timed as if asked once per entry, which is what
//! a frame no longer does. Fastest of N, µs per entry. Prints; gates
//! nothing (wall-clock on a shared box).
//!
//! Run with: `cargo run --release --example grant_budget [-- <entries> <reps>]`

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use drivolution::core::proto::{DrvMsg, DrvRequest};
use drivolution::core::{ClientIdentity, DriverQuery};
use drivolution::fleet::FleetSim;
use drivolution::netsim::Service;
use drivolution::prelude::{Addr, DriverId, DriverVersion, RolloutConfig, RolloutPlan};

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

fn main() {
    let mut args = std::env::args().skip(1).map(|a| a.parse::<usize>());
    let clients = args.next().and_then(Result::ok).unwrap_or(2000).max(10);
    let reps = args.next().and_then(Result::ok).unwrap_or(20).max(1);

    let sim = FleetSim::build_rollout_batched(clients, LEASE_MS, PADDING);
    sim.bootstrap_all();
    sim.publish_staged(2, DriverVersion::new(2, 0, 0), PADDING);
    let plan = RolloutPlan {
        canary: clients / 10,
        wave_pcts: vec![10, 30],
    };
    sim.start_rollout(DriverId(1), DriverId(2), &plan, RolloutConfig::default());
    sim.net().clock().advance_ms(LEASE_MS);
    let entries: Vec<(String, DrvRequest)> = sim
        .clients()
        .iter()
        .filter_map(|c| c.batch_renewal_entry())
        .collect();
    let n = entries.len();
    let queries: Vec<DriverQuery> = entries.iter().map(|(h, r)| query(h, r)).collect();
    let frame = DrvMsg::RenewBatch {
        entries: entries.clone(),
    }
    .encode();

    let srv = sim.server();
    let store = srv.store();
    let aggregator = Addr::new("agg-default", 1);
    let now = sim.net().clock().now_ms();
    let call = |frame: Bytes| srv.call(&aggregator, frame).expect("the server answers");
    let reply = DrvMsg::decode(call(frame.clone())).expect("an OFFER_BATCH");

    let stages = [
        ("Service::call", fastest(reps, || call(frame.clone()))),
        (
            "  decode",
            fastest(reps, || DrvMsg::decode(frame.clone()).expect("decodes")),
        ),
        ("  reply encode", fastest(reps, || reply.encode())),
        (
            "  Sample code 1, per entry",
            fastest(reps, || {
                for q in &queries {
                    black_box(store.matching_drivers(q).expect("runs"));
                }
            }),
        ),
        (
            "  Sample code 2",
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
            "  record (rollout target)",
            fastest(reps, || {
                for _ in &queries {
                    black_box(store.record(DriverId(2)).expect("installed"));
                }
            }),
        ),
        (
            "  licence acquire",
            fastest(reps, || {
                for (host, req) in &entries {
                    srv.licenses()
                        .acquire(DriverId(1), &req.user, host, LEASE_MS, now)
                        .expect("no limit set");
                }
            }),
        ),
    ];

    println!(
        "one RENEW_BATCH of {n} entries ({clients} clients, v2 staged, rollout attached), \
         fastest of {reps}, µs per entry"
    );
    for (name, us) in stages {
        println!("{name:<30} {:>9.2}", us / n as f64);
    }
}
