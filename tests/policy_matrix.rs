//! The full renewal-policy matrix of Table 4: {RENEW, UPGRADE, REVOKE} ×
//! {AFTER_CLOSE, AFTER_COMMIT, IMMEDIATE}, each exercised against live
//! connections with and without open transactions.

use std::sync::Arc;

use drivolution::bootloader::ManagedConnection;
use drivolution::core::pack::pack_driver;
use drivolution::prelude::*;

const LEASE_MS: u64 = 10_000;

struct Rig {
    net: Network,
    srv: Arc<DrivolutionServer>,
    url: DbUrl,
    boot: Arc<Bootloader>,
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

fn rig(renew: RenewPolicy, expiration: ExpirationPolicy) -> Rig {
    let net = Network::new();
    let db = Arc::new(MiniDb::with_clock("orders", net.clock().clone()));
    {
        let mut s = db.admin_session();
        db.exec(&mut s, "CREATE TABLE t (id INTEGER PRIMARY KEY)")
            .unwrap();
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
            .with_policies(renew, expiration),
    )
    .unwrap();
    let boot = Bootloader::new(
        &net,
        Addr::new("app", 1),
        BootloaderConfig::same_host().trusting(srv.certificate()),
    );
    Rig {
        net,
        srv,
        url: DbUrl::direct(Addr::new("db1", 5432), "orders"),
        boot,
    }
}

fn props() -> ConnectProps {
    ConnectProps::user("admin", "admin")
}

/// Opens one idle and one in-transaction connection.
fn open_pair(r: &Rig) -> (ManagedConnection, ManagedConnection) {
    let idle = r.boot.connect(&r.url, &props()).unwrap();
    let mut busy = r.boot.connect(&r.url, &props()).unwrap();
    busy.begin().unwrap();
    busy.execute("INSERT INTO t VALUES (1)").unwrap();
    (idle, busy)
}

fn publish_v2(r: &Rig, expiration: ExpirationPolicy) {
    r.srv
        .install_driver(&record(2, 2, DriverVersion::new(2, 0, 0)))
        .unwrap();
    r.srv.store().remove_permissions(DriverId(1)).unwrap();
    r.srv
        .add_rule(
            &PermissionRule::any(DriverId(2))
                .with_lease_ms(LEASE_MS as i64)
                .with_transfer(TransferMethod::Any)
                .with_policies(RenewPolicy::Upgrade, expiration),
        )
        .unwrap();
}

// --- RENEW × everything: connections are never disturbed -----------------

#[test]
fn renew_policy_never_disturbs_connections() {
    for expiration in [
        ExpirationPolicy::AfterClose,
        ExpirationPolicy::AfterCommit,
        ExpirationPolicy::Immediate,
    ] {
        let r = rig(RenewPolicy::Renew, expiration);
        let (mut idle, mut busy) = open_pair(&r);
        r.net.clock().advance_ms(LEASE_MS);
        assert_eq!(r.boot.poll(), PollOutcome::Renewed, "{expiration:?}");
        idle.execute("SELECT 1").unwrap();
        busy.execute("SELECT 1").unwrap();
        busy.commit().unwrap();
        busy.execute("SELECT 1").unwrap();
        assert_eq!(r.boot.active_version(), Some(DriverVersion::new(1, 0, 0)));
    }
}

// --- UPGRADE × each expiration policy -------------------------------------

#[test]
fn upgrade_after_close_lets_connections_drain_naturally() {
    let r = rig(RenewPolicy::Upgrade, ExpirationPolicy::AfterClose);
    let (mut idle, mut busy) = open_pair(&r);
    publish_v2(&r, ExpirationPolicy::AfterClose);
    r.net.clock().advance_ms(LEASE_MS);
    assert!(matches!(r.boot.poll(), PollOutcome::Upgraded { .. }));
    // Both old connections keep working until the app closes them.
    idle.execute("SELECT 1").unwrap();
    busy.commit().unwrap();
    busy.execute("SELECT 1").unwrap();
    assert_eq!(r.boot.registry().len(), 2);
    idle.close().unwrap();
    busy.close().unwrap();
    assert_eq!(r.boot.registry().len(), 1, "old namespace unloaded");
}

#[test]
fn upgrade_after_commit_closes_idle_now_and_busy_at_commit() {
    let r = rig(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit);
    let (mut idle, mut busy) = open_pair(&r);
    publish_v2(&r, ExpirationPolicy::AfterCommit);
    r.net.clock().advance_ms(LEASE_MS);
    assert!(matches!(r.boot.poll(), PollOutcome::Upgraded { .. }));
    assert!(idle.execute("SELECT 1").is_err(), "idle closed immediately");
    busy.execute("SELECT 1").unwrap();
    busy.commit().unwrap();
    assert!(busy.execute("SELECT 1").is_err(), "closed after commit");
    assert_eq!(r.boot.registry().len(), 1);
}

#[test]
fn upgrade_immediate_terminates_all_connections() {
    let r = rig(RenewPolicy::Upgrade, ExpirationPolicy::Immediate);
    let (mut idle, mut busy) = open_pair(&r);
    publish_v2(&r, ExpirationPolicy::Immediate);
    r.net.clock().advance_ms(LEASE_MS);
    assert!(matches!(r.boot.poll(), PollOutcome::Upgraded { .. }));
    assert!(idle.execute("SELECT 1").is_err());
    assert!(busy.execute("SELECT 1").is_err());
    assert_eq!(r.boot.registry().len(), 1);
    // New connections work on v2 right away.
    let mut fresh = r.boot.connect(&r.url, &props()).unwrap();
    fresh.execute("SELECT 1").unwrap();
    assert_eq!(r.boot.active_version(), Some(DriverVersion::new(2, 0, 0)));
    // The severed transaction's INSERT was rolled back, not kept.
    let rs = fresh.execute("SELECT id FROM t WHERE id = 1").unwrap();
    assert!(
        rs.rows().unwrap().rows.is_empty(),
        "severed INSERT survived"
    );
}

// --- REVOKE × each expiration policy ---------------------------------------

#[test]
fn revoke_after_close_blocks_new_keeps_existing() {
    let r = rig(RenewPolicy::Revoke, ExpirationPolicy::AfterClose);
    let (mut idle, mut busy) = open_pair(&r);
    r.net.clock().advance_ms(LEASE_MS);
    assert_eq!(r.boot.poll(), PollOutcome::Revoked);
    // "Existing connections can remain active with the revoked driver
    // until they terminate by an explicit closing by the application."
    idle.execute("SELECT 1").unwrap();
    busy.commit().unwrap();
    // "The bootloader blocks new connection requests and it returns
    // errors explaining the absence of a suitable driver."
    let e = r.boot.connect(&r.url, &props()).unwrap_err();
    assert!(e.to_string().contains("revoked"));
    idle.close().unwrap();
    busy.close().unwrap();
    assert_eq!(r.boot.registry().len(), 0);
}

#[test]
fn revoke_after_commit_closes_idle_now_and_busy_at_commit() {
    let r = rig(RenewPolicy::Revoke, ExpirationPolicy::AfterCommit);
    let (mut idle, mut busy) = open_pair(&r);
    r.net.clock().advance_ms(LEASE_MS);
    assert_eq!(r.boot.poll(), PollOutcome::Revoked);
    assert!(idle.execute("SELECT 1").is_err());
    busy.execute("SELECT 1").unwrap();
    busy.commit().unwrap();
    assert!(busy.execute("SELECT 1").is_err());
    assert!(r.boot.connect(&r.url, &props()).is_err());
}

#[test]
fn revoke_immediate_terminates_everything() {
    let r = rig(RenewPolicy::Revoke, ExpirationPolicy::Immediate);
    let (mut idle, mut busy) = open_pair(&r);
    r.net.clock().advance_ms(LEASE_MS);
    assert_eq!(r.boot.poll(), PollOutcome::Revoked);
    assert!(idle.execute("SELECT 1").is_err());
    assert!(busy.execute("SELECT 1").is_err());
    assert_eq!(r.boot.registry().len(), 0);
    assert!(r.boot.connect(&r.url, &props()).is_err());
}

// --- hot-swap drain-window matrix ------------------------------------------
//
// With a coexistence window, the expiration policy stops being "what
// happens at activation" and becomes "what happens to stragglers when
// the drain grace expires". Each policy is exercised against an idle
// session, a well-behaved in-transaction session, and a long-running
// transaction that never reaches a boundary inside the window.

use std::time::Duration;

const DRAIN_GRACE: Duration = Duration::from_secs(10);

fn swap_rig(expiration: ExpirationPolicy) -> Rig {
    let mut r = rig(RenewPolicy::Upgrade, expiration);
    let boot = Bootloader::new(
        &r.net,
        Addr::new("swap-app", 1),
        BootloaderConfig::same_host()
            .trusting(r.srv.certificate())
            .with_hot_swap(SwapConfig::new(DRAIN_GRACE, Duration::from_secs(1))),
    );
    r.boot = boot;
    r
}

/// Opens idle + in-transaction + long-running sessions and swaps to v2.
/// Returns the three connections; on return the coexistence window is
/// open and nothing has been disturbed yet.
fn open_trio_and_swap(
    r: &Rig,
    expiration: ExpirationPolicy,
) -> (ManagedConnection, ManagedConnection, ManagedConnection) {
    let idle = r.boot.connect(&r.url, &props()).unwrap();
    let mut busy = r.boot.connect(&r.url, &props()).unwrap();
    busy.begin().unwrap();
    busy.execute("INSERT INTO t VALUES (1)").unwrap();
    let mut long = r.boot.connect(&r.url, &props()).unwrap();
    long.begin().unwrap();
    long.execute("INSERT INTO t VALUES (2)").unwrap();
    publish_v2(r, expiration);
    r.net.clock().advance_ms(LEASE_MS);
    assert!(matches!(r.boot.poll(), PollOutcome::Upgraded { .. }));
    // The coexistence window is open: both namespaces are loaded and
    // every old session keeps executing.
    assert_eq!(r.boot.registry().len(), 2, "dual-version coexistence");
    (idle, busy, long)
}

fn pump_past_deadline(r: &Rig) {
    let now = r.net.clock().now_ms();
    r.net
        .run_until(now + DRAIN_GRACE.as_millis() as u64 + 3_000);
}

#[test]
fn drain_window_after_close_never_forces_stragglers() {
    let r = swap_rig(ExpirationPolicy::AfterClose);
    let (mut idle, mut busy, mut long) = open_trio_and_swap(&r, ExpirationPolicy::AfterClose);
    // Idle migrates at its next statement; busy right after commit.
    idle.execute("SELECT 1").unwrap();
    busy.execute("SELECT 1").unwrap();
    busy.commit().unwrap();
    busy.execute("SELECT 1").unwrap();
    pump_past_deadline(&r);
    // The long-running transaction outlived the grace — AFTER_CLOSE
    // still never forces it.
    long.execute("SELECT 1").unwrap();
    assert!(long.in_transaction());
    let swap = r.boot.stats().swap;
    assert_eq!(swap.sessions_forced, 0, "{swap:?}");
    assert_eq!(swap.transactions_severed, 0, "{swap:?}");
    assert!(swap.sessions_migrated >= 2, "{swap:?}");
    // Only the application closing the straggler retires the window.
    assert_eq!(r.boot.registry().len(), 2);
    long.commit().unwrap();
    long.close().unwrap();
    pump_past_deadline(&r);
    assert_eq!(r.boot.registry().len(), 1, "old namespace unloaded");
    assert_eq!(r.boot.stats().swap.windows_completed, 1);
}

#[test]
fn drain_window_after_commit_forces_at_boundary_and_never_severs() {
    let r = swap_rig(ExpirationPolicy::AfterCommit);
    let (mut idle, mut busy, mut long) = open_trio_and_swap(&r, ExpirationPolicy::AfterCommit);
    // Inside the window nothing is closed — unlike the no-window
    // AFTER_COMMIT upgrade, the idle session keeps working (it simply
    // migrates).
    idle.execute("SELECT 1").unwrap();
    busy.commit().unwrap();
    busy.execute("SELECT 1").unwrap();
    pump_past_deadline(&r);
    // The straggler was escalated, but AFTER_COMMIT never severs a live
    // transaction: it still executes and commits...
    long.execute("SELECT 1").unwrap();
    long.commit().unwrap();
    // ...and only *then* is it closed.
    assert!(long.execute("SELECT 1").is_err(), "closed after commit");
    pump_past_deadline(&r);
    let swap = r.boot.stats().swap;
    assert_eq!(swap.sessions_forced, 1, "{swap:?}");
    assert_eq!(swap.transactions_severed, 0, "AFTER_COMMIT severed a txn");
    assert!(swap.sessions_migrated >= 2, "{swap:?}");
    assert_eq!(swap.windows_completed, 1, "{swap:?}");
    assert_eq!(r.boot.registry().len(), 1);
}

#[test]
fn drain_window_immediate_severs_stragglers_at_deadline_only() {
    let r = swap_rig(ExpirationPolicy::Immediate);
    let (mut idle, mut busy, mut long) = open_trio_and_swap(&r, ExpirationPolicy::Immediate);
    // Even IMMEDIATE waits out the window: sessions at a boundary
    // migrate instead of dying.
    idle.execute("SELECT 1").unwrap();
    busy.commit().unwrap();
    busy.execute("SELECT 1").unwrap();
    pump_past_deadline(&r);
    // Only the straggler that never reached a boundary is severed.
    assert!(long.execute("SELECT 1").is_err(), "severed at deadline");
    let swap = r.boot.stats().swap;
    assert_eq!(swap.sessions_forced, 1, "{swap:?}");
    assert_eq!(swap.transactions_severed, 1, "{swap:?}");
    assert!(swap.sessions_migrated >= 2, "{swap:?}");
    assert_eq!(swap.windows_completed, 1, "{swap:?}");
    assert_eq!(r.boot.registry().len(), 1);
    // Idle and busy were untouched throughout.
    idle.execute("SELECT 1").unwrap();
    busy.execute("SELECT 1").unwrap();
}

// --- the connection-pool caveat of §3.4.2 ---------------------------------

#[test]
fn pooled_connections_starve_after_close_upgrades() {
    use driverkit::ConnectionPool;

    let r = rig(RenewPolicy::Upgrade, ExpirationPolicy::AfterClose);
    // An application-side pool holds connections open forever: "If the
    // client uses a connection pool, the first option might not be a good
    // choice."
    let ns = {
        let _c = r.boot.connect(&r.url, &props()).unwrap();
        r.boot.registry().active().unwrap()
    };
    let pool = ConnectionPool::new(ns.driver.clone(), r.url.clone(), props(), 2);
    let a = pool.checkout().unwrap();
    let b = pool.checkout().unwrap();
    drop(a);
    drop(b); // both idle in the pool, physically open

    publish_v2(&r, ExpirationPolicy::AfterClose);
    r.net.clock().advance_ms(LEASE_MS);
    assert!(matches!(r.boot.poll(), PollOutcome::Upgraded { .. }));
    // The pool never closes its connections: under AFTER_CLOSE the old
    // driver can never drain.
    assert_eq!(pool.idle_len(), 2);
    let mut c = pool.checkout().unwrap();
    c.execute("SELECT 1").unwrap(); // still served by the v1 driver
                                    // AFTER_COMMIT (or IMMEDIATE) is the right policy for pooled setups:
                                    // rerun with AFTER_COMMIT and observe the pooled connections die.
    let r2 = rig(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit);
    let mut kept = r2.boot.connect(&r2.url, &props()).unwrap();
    publish_v2(&r2, ExpirationPolicy::AfterCommit);
    r2.net.clock().advance_ms(LEASE_MS);
    assert!(matches!(r2.boot.poll(), PollOutcome::Upgraded { .. }));
    assert!(kept.execute("SELECT 1").is_err());
    let _ = r.srv;
}
