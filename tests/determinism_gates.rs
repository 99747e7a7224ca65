//! Regression tests for the determinism invariants drvlint enforces
//! statically: a default [`Network`] runs on pure virtual time, and an
//! end-to-end fleet scenario replays byte-identical wire traffic under
//! one seed.

use std::time::Duration;

use drivolution::core::DriverVersion;
use drivolution::fleet::{FleetSim, SimSpec};
use drivolution::netsim::{Addr, AddrStats, ChaosSchedule, Network};

const MINUTE: u64 = 60_000;

/// A zoned fleet on 10-minute leases, 1 ms same-zone and 25 ms
/// cross-zone links.
fn cdn(zones: &'static [&'static str], clients: usize, driver_padding: usize) -> FleetSim {
    FleetSim::from_spec(SimSpec {
        driver_padding,
        zones,
        same_zone_ms: 1,
        cross_zone_ms: 25,
        ..SimSpec::new(clients, 10 * MINUTE)
    })
}

/// A default `Network` must be pure virtual time: no wall-clock source
/// is reachable from it, so its time only moves when the scheduler is
/// cranked — never with the OS clock.
#[test]
fn default_network_is_pure_virtual_time() {
    let net = Network::new();
    assert_eq!(net.clock().now_ms(), 0);
    // Real time passing must not leak in: only `run_until` moves time.
    std::thread::sleep(Duration::from_millis(25));
    assert_eq!(net.clock().now_ms(), 0, "wall clock leaked into the sim");
    net.run_until(500);
    assert_eq!(net.clock().now_ms(), 500);
}

/// One end-to-end CDN scenario (zoned mirrors, heartbeats with
/// coverage, candidate ranking, chunked transfer) replayed under the
/// same seed must produce *identical* per-address traffic — the wire
/// order of every broadcast, ranking decision, and stats update is
/// pinned. This is the dynamic counterpart of drvlint's `map-iter`
/// rule: one hash-ordered iteration reaching a frame or a counter
/// breaks it.
#[test]
fn same_seed_replays_identical_fleet_traffic() {
    let run = |seed: u64| -> Vec<(Addr, AddrStats)> {
        let sim = cdn(&["east", "west"], 4, 32 * 1024);
        sim.net().scheduler().reseed(seed);
        sim.bootstrap_all();
        sim.publish_upgrade(false);
        sim.run_until_upgraded(MINUTE, 60 * MINUTE);
        sim.net().stats().snapshot()
    };
    let a = run(41);
    let b = run(41);
    assert_eq!(a, b, "same seed must replay identical traffic");
    assert!(
        a.iter().any(|(_, s)| s.requests > 0),
        "scenario produced no traffic; the replay assertion is vacuous"
    );
}

/// A chaos run doubles the nondeterminism surface: corruption draws,
/// per-link loss draws, and fault flips all pull from seeded state. Two
/// same-seed runs of a fleet upgrade under a byzantine mirror, a healing
/// zone partition, a loss window, and a latency storm must reproduce
/// *every* counter in the full `NetStats` snapshot — including the typed
/// failure ledger (dropped / partitioned / corrupted).
#[test]
fn same_seed_chaos_schedule_reproduces_every_counter() {
    let run = |seed: u64| -> Vec<(Addr, AddrStats)> {
        let sim = cdn(&["east", "west"], 6, 32 * 1024);
        sim.net().scheduler().reseed(seed);
        sim.net().reseed(seed);
        sim.bootstrap_all();
        let t0 = sim.net().clock().now_ms();
        sim.install_chaos(
            &ChaosSchedule::new()
                .byzantine_mirror("mirror-west", 0.4, t0, t0 + 120 * MINUTE)
                .zone_partition("east", "west", t0 + 2 * MINUTE, t0 + 6 * MINUTE)
                .loss_window(0.1, t0 + 4 * MINUTE, t0 + 12 * MINUTE)
                .latency_storm(4, t0 + 5 * MINUTE, t0 + 9 * MINUTE),
        );
        // Padded v2 so the offer carries a chunked plan — the mirrors
        // (including the byzantine one) only serve on the delta path.
        sim.publish(2, DriverVersion::new(2, 0, 0), 32 * 1024, false);
        sim.run_until_upgraded(MINUTE, 90 * MINUTE);
        sim.net().stats().snapshot()
    };
    let a = run(23);
    let b = run(23);
    assert_eq!(a, b, "same seed must reproduce every chaos counter");
    let totals = |snap: &[(Addr, AddrStats)]| {
        snap.iter().fold((0u64, 0u64, 0u64), |acc, (_, s)| {
            (
                acc.0 + s.dropped,
                acc.1 + s.partitioned,
                acc.2 + s.corrupted,
            )
        })
    };
    let (dropped, partitioned, corrupted) = totals(&a);
    assert!(dropped > 0, "loss window never dropped a message");
    assert!(partitioned > 0, "zone partition never blocked a message");
    assert!(corrupted > 0, "byzantine mirror never corrupted a serve");
}

/// The same replay guarantee for the batched fleet shape (renewal
/// aggregators, license seat table, zone-shared image cache): pins
/// that coalesced renewals fire in a reproducible order — and that
/// adopting a peer's assembled image never changes what crosses the wire.
#[test]
fn same_seed_replays_identical_batched_traffic() {
    let run = |seed: u64| -> Vec<(Addr, AddrStats)> {
        let sim = FleetSim::build_rollout_batched(12, 10 * MINUTE, 32 * 1024);
        sim.net().scheduler().reseed(seed);
        sim.bootstrap_all();
        sim.publish_upgrade(false);
        sim.run_until_upgraded(MINUTE, 60 * MINUTE);
        sim.net().stats().snapshot()
    };
    let a = run(17);
    let b = run(17);
    assert_eq!(a, b, "same seed must replay identical batched traffic");
    assert!(
        a.iter().any(|(_, s)| s.requests > 0),
        "scenario produced no traffic; the replay assertion is vacuous"
    );
}

/// A sealed envelope's nonce is counted by the certificate that seals it,
/// not by the process: two same-seed worlds built one after the other ship
/// byte-identical `FILE_DATA` for the same bootstrap.
#[test]
fn same_seed_sealed_bootstraps_ship_identical_file_data() {
    use drivolution::core::pack::pack_driver;
    use drivolution::core::proto::{DrvMsg, DrvRequest};
    use drivolution::core::{ApiName, BinaryFormat, DriverId, DriverImage, DriverRecord};
    use drivolution::core::{ChannelTrust, TransferMethod};
    use drivolution::server::{launch_standalone, ServerConfig};

    let world = |seed: u64| {
        let net = Network::new();
        net.scheduler().reseed(seed);
        let drv = Addr::new("drvsrv", 1071);
        let srv = launch_standalone(&net, drv.clone(), ServerConfig::default()).unwrap();
        let image = DriverImage::new("rdbc", DriverVersion::new(1, 0, 0), 1);
        let bytes = pack_driver(BinaryFormat::Djar, &image);
        srv.install_driver(&DriverRecord::new(
            DriverId(1),
            ApiName::rdbc(),
            BinaryFormat::Djar,
            bytes.clone(),
        ))
        .unwrap();
        let from = Addr::new("web0", 1);
        let ask = |msg: DrvMsg| DrvMsg::decode(net.request(&from, &drv, msg.encode()).unwrap());
        let req = DrvRequest::bootstrap("vdb", "app", "RDBC", "linux-x86_64");
        let Ok(DrvMsg::Offer(offer)) = ask(DrvMsg::Request(req)) else {
            panic!("no offer")
        };
        assert_eq!(offer.transfer_method, TransferMethod::Sealed);
        let file = DrvMsg::FileRequest {
            location: offer.location,
            transfer_method: offer.transfer_method,
        };
        let frame = net.request(&from, &drv, file.encode()).unwrap();
        let Ok(DrvMsg::FileData { payload }) = DrvMsg::decode(frame.clone()) else {
            panic!("no FILE_DATA")
        };
        let mut trust = ChannelTrust::new();
        trust.pin(srv.certificate());
        let plain = drivolution::core::transfer::unwrap(TransferMethod::Sealed, payload, &trust);
        assert_eq!(plain.unwrap(), bytes);
        frame
    };
    assert_eq!(world(7), world(7));
}
