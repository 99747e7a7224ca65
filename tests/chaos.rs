//! The chaos tier: seed-reproducible fault schedules driving byzantine
//! mirrors, healing partitions, loss, and latency storms against real
//! fleets — plus the single-client loss/partition scenarios this file
//! absorbed from the old `lossy_network.rs`.
//!
//! The property pinned here (and measured in `benches/chaos.rs`): under
//! any fault schedule the sim can express, every upgrade eventually
//! converges with correct bytes, the byzantine mirror is demoted through
//! corroborated `MIRROR_COMPLAINT` strikes, no healthy mirror is ever
//! demoted, and a same-seed replay reproduces every counter.

use std::sync::Arc;

use drivolution::core::pack::pack_driver;
use drivolution::fleet::{FleetSim, SimSpec};
use drivolution::prelude::*;

const MINUTE: u64 = 60_000;
const LEASE_MS: u64 = 10_000;

/// The seed for the flagship e2e below. Any seed converges with correct
/// bytes (that is the property); this one also makes the 25% corruption
/// draws land on enough distinct west-zone clients to demonstrate
/// corroborated demotion inside the run's window.
const E2E_SEED: u64 = 9;

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

fn record(id: i64, proto: u16, version: DriverVersion) -> DriverRecord {
    let image = DriverImage::new(format!("drv-{id}"), version, proto);
    DriverRecord::new(
        DriverId(id),
        ApiName::rdbc(),
        BinaryFormat::Djar,
        pack_driver(BinaryFormat::Djar, &image),
    )
    .with_version(version)
}

fn rig() -> (Network, Arc<DrivolutionServer>, DbUrl) {
    let net = Network::new();
    let db = Arc::new(MiniDb::with_clock("orders", net.clock().clone()));
    {
        let mut s = db.admin_session();
        db.exec(&mut s, "CREATE TABLE t (a INTEGER)").unwrap();
        db.exec(&mut s, "INSERT INTO t VALUES (1)").unwrap();
    }
    net.bind_arc(Addr::new("db1", 5432), Arc::new(DbServer::new(db.clone())))
        .unwrap();
    let srv = attach_in_database(
        &net,
        db,
        Addr::new("db1", DRIVOLUTION_PORT),
        ServerConfig::default(),
    )
    .unwrap();
    srv.install_driver(&record(1, 1, DriverVersion::new(1, 0, 0)))
        .unwrap();
    srv.add_rule(
        &PermissionRule::any(DriverId(1))
            .with_lease_ms(LEASE_MS as i64)
            .with_transfer(TransferMethod::Any)
            .with_policies(RenewPolicy::Renew, ExpirationPolicy::AfterCommit),
    )
    .unwrap();
    (
        net.clone(),
        srv,
        DbUrl::direct(Addr::new("db1", 5432), "orders"),
    )
}

// --- absorbed from lossy_network.rs --------------------------------------

#[test]
fn bootstrap_retries_through_a_lossy_network() {
    let (net, srv, url) = rig();
    net.reseed(7);
    net.with_faults(|f| f.set_drop_prob(0.3));
    let boot = Bootloader::new(
        &net,
        Addr::new("app", 1),
        BootloaderConfig::same_host().trusting(srv.certificate()),
    );
    // Individual attempts may fail (request, file transfer, or the DB
    // handshake may be dropped) — application-level retry must converge.
    let mut attempts = 0;
    let conn = loop {
        attempts += 1;
        assert!(attempts < 100, "did not converge under 30% loss");
        match boot.connect(&url, &ConnectProps::user("admin", "admin")) {
            Ok(c) => break c,
            Err(_) => continue,
        }
    };
    drop(conn);
    assert_eq!(boot.active_version(), Some(DriverVersion::new(1, 0, 0)));
    // Exactly one driver loaded despite the messy path.
    assert_eq!(boot.registry().len(), 1);
}

#[test]
fn renewals_survive_loss_and_never_drop_the_driver() {
    let (net, srv, url) = rig();
    let boot = Bootloader::new(
        &net,
        Addr::new("app", 1),
        BootloaderConfig::same_host().trusting(srv.certificate()),
    );
    let mut conn = boot
        .connect(&url, &ConnectProps::user("admin", "admin"))
        .unwrap();
    net.reseed(11);
    net.with_faults(|f| f.set_drop_prob(0.5));
    // A simulated day of renewal cycles under 50% loss: some renewals
    // fail (driver kept), none may revoke, and the driver must always
    // stay loaded.
    let mut renewed = 0;
    let mut kept = 0;
    for _ in 0..100 {
        net.clock().advance_ms(LEASE_MS);
        match boot.poll() {
            PollOutcome::Renewed => renewed += 1,
            PollOutcome::KeptAfterFailure => kept += 1,
            other => panic!("unexpected outcome under loss: {other:?}"),
        }
        assert!(boot.active_version().is_some());
    }
    assert!(renewed > 10, "renewed={renewed}");
    assert!(kept > 10, "kept={kept}");
    // The failures landed in the typed ledger as in-flight drops, not
    // as some other failure kind.
    let t = net.stats().totals();
    assert!(t.dropped > 0, "loss must be accounted as dropped");
    assert_eq!(t.partitioned, 0);
    assert_eq!(t.corrupted, 0);
    // The connection was never disturbed (loss only affected the
    // drivolution control path, not established behaviour).
    net.with_faults(|f| f.set_drop_prob(0.0));
    conn.execute("SELECT a FROM t").unwrap();
}

#[test]
fn partition_heals_on_schedule_and_upgrade_completes() {
    // The old manual partition/heal pair, now expressed as a declarative
    // window: the fault flips on and off purely by pumping virtual time.
    let (net, srv, url) = rig();
    let boot = Bootloader::new(
        &net,
        Addr::new("app", 1),
        BootloaderConfig::same_host().trusting(srv.certificate()),
    );
    boot.connect(&url, &ConnectProps::user("admin", "admin"))
        .unwrap();

    // Publish v2 while the client is partitioned from the server host.
    srv.install_driver(&record(2, 2, DriverVersion::new(2, 0, 0)))
        .unwrap();
    srv.store().remove_permissions(DriverId(1)).unwrap();
    srv.add_rule(
        &PermissionRule::any(DriverId(2))
            .with_lease_ms(LEASE_MS as i64)
            .with_transfer(TransferMethod::Any)
            .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit),
    )
    .unwrap();
    let t0 = net.clock().now_ms();
    ChaosSchedule::new()
        .host_partition("app", "db1", t0, t0 + LEASE_MS * 3)
        .install(&net);
    net.run_until(t0 + LEASE_MS * 3 - 1);
    assert_eq!(boot.poll(), PollOutcome::KeptAfterFailure);
    assert_eq!(boot.active_version(), Some(DriverVersion::new(1, 0, 0)));
    assert!(
        net.stats().totals().partitioned > 0,
        "blocked renewals must be accounted as partitioned"
    );

    // Heal on schedule: the very next poll upgrades.
    net.run_until(t0 + LEASE_MS * 3);
    assert!(matches!(boot.poll(), PollOutcome::Upgraded { .. }));
    assert_eq!(boot.active_version(), Some(DriverVersion::new(2, 0, 0)));
}

// --- the chaos-tier e2e ---------------------------------------------------

/// Everything a chaos fleet run exposes, for assertions and replay
/// comparison.
struct ChaosRun {
    converged_v2: bool,
    converged_v3: bool,
    digests_v3: std::collections::BTreeSet<u64>,
    complaints: u64,
    demotions: u64,
    byzantine_demoted: bool,
    honest_demoted: Vec<String>,
    honest_strikes: u32,
    corrupted_at_byzantine: u64,
    partitioned_total: u64,
}

/// A 3-zone CDN fleet upgraded twice under a schedule combining one
/// byzantine mirror (25% corrupt serves), a healing zone partition, and
/// a latency storm.
fn chaos_fleet_run(seed: u64) -> ChaosRun {
    let sim = cdn(&["east", "west", "south"], 12, 32 * 1024);
    sim.net().scheduler().reseed(seed);
    sim.net().reseed(seed);
    sim.bootstrap_all();

    let t0 = sim.net().clock().now_ms();
    let installed = sim.install_chaos(
        &ChaosSchedule::new()
            // The west mirror turns byzantine for the whole run.
            .byzantine_mirror("mirror-west", 0.25, t0, t0 + 200 * MINUTE)
            // South loses the primary's zone for a while, then heals.
            .zone_partition("east", "south", t0 + 2 * MINUTE, t0 + 8 * MINUTE)
            // A latency storm multiplies every link for a window.
            .latency_storm(6, t0 + 3 * MINUTE, t0 + 10 * MINUTE),
    );
    assert_eq!(installed, 6);

    sim.publish(2, DriverVersion::new(2, 0, 0), 32 * 1024, false);
    let _ = sim.run_until_upgraded(MINUTE, 90 * MINUTE);
    let converged_v2 = sim.count_on(DriverVersion::new(2, 0, 0)) == sim.clients().len();
    sim.publish(3, DriverVersion::new(3, 0, 0), 32 * 1024, false);
    let _ = sim.run_until_on(DriverVersion::new(3, 0, 0), MINUTE, 90 * MINUTE);
    let converged_v3 = sim.count_on(DriverVersion::new(3, 0, 0)) == sim.clients().len();

    let dir = sim.server().mirror_directory();
    let byz = dir.entry("mirror-west:1071").expect("byzantine entry");
    let honest: Vec<_> = dir
        .snapshot()
        .into_iter()
        .filter(|e| e.location != "mirror-west:1071")
        .collect();
    let st = sim.server().stats();
    let totals = sim.net().stats().totals();
    ChaosRun {
        converged_v2,
        converged_v3,
        digests_v3: sim.image_digests_on(DriverVersion::new(3, 0, 0)),
        complaints: st.mirror_complaints,
        demotions: st.mirror_demotions,
        byzantine_demoted: byz.demoted,
        honest_demoted: honest
            .iter()
            .filter(|e| e.demoted)
            .map(|e| e.location.clone())
            .collect(),
        honest_strikes: honest.iter().map(|e| e.strikes).sum(),
        corrupted_at_byzantine: sim
            .net()
            .stats()
            .for_addr(&Addr::new("mirror-west", 1071))
            .corrupted,
        partitioned_total: totals.partitioned,
    }
}

#[test]
fn byzantine_mirror_is_demoted_and_the_fleet_converges_with_correct_bytes() {
    let run = chaos_fleet_run(E2E_SEED);
    // Zero failed upgrades: every client reached both versions.
    assert!(run.converged_v2, "fleet must fully converge on v2");
    assert!(run.converged_v3, "fleet must fully converge on v3");
    // Zero wrong-byte installs: all twelve clients agree on one image.
    assert_eq!(
        run.digests_v3.len(),
        1,
        "every client must hold the same verified v3 image"
    );
    // The byzantine mirror really served corrupted bytes, each one was
    // reported, and corroborated strikes demoted it.
    assert!(
        run.corrupted_at_byzantine >= 2,
        "corruption draws must land at 25%: {}",
        run.corrupted_at_byzantine
    );
    assert!(
        run.complaints >= run.corrupted_at_byzantine,
        "every corrupted serve must be complained about"
    );
    assert!(run.byzantine_demoted, "byzantine mirror must be demoted");
    assert_eq!(run.demotions, 1, "exactly one demotion");
    // No healthy mirror was falsely accused or demoted.
    assert!(
        run.honest_demoted.is_empty(),
        "healthy mirrors demoted: {:?}",
        run.honest_demoted
    );
    assert_eq!(run.honest_strikes, 0, "no strikes against healthy mirrors");
    // The healing partition actually blocked (and then released) south.
    assert!(run.partitioned_total > 0, "zone partition never bit");
}

#[test]
fn demoted_mirror_stays_out_even_after_reannounce() {
    // Directory-level regression, fleet-shaped: once the chaos run
    // demotes the byzantine mirror, a fresh announce must not put it
    // back into plans.
    let sim = cdn(&["east", "west"], 2, 16 * 1024);
    let dir = sim.server().mirror_directory();
    dir.complaint("mirror-west:1071", "app0001");
    dir.complaint("mirror-west:1071", "app0003");
    assert!(dir.entry("mirror-west:1071").unwrap().demoted);
    // Re-announce (as the mirror's heartbeat task effectively does).
    dir.announce("mirror-west:1071", Some("west".into()), false);
    assert!(dir.entry("mirror-west:1071").unwrap().demoted);
    let c = dir.candidates(Some("west"), &[]);
    assert!(
        c.iter().all(|m| m.location != "mirror-west:1071"),
        "demoted mirror crept back into a plan: {c:?}"
    );
}
