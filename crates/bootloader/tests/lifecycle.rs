//! End-to-end bootloader lifecycle tests: bootstrap (Table 3), renewal
//! and upgrade (Table 4), revocation, failover, discovery, signatures,
//! man-in-the-middle defence, and lazy extension fetch.

use std::sync::Arc;

use bytes::Bytes;

use driverkit::{ConnectProps, Connection, DbUrl, DkError};
use drivolution_bootloader::{Bootloader, BootloaderConfig, PollOutcome};
use drivolution_core::chunk::{ChunkManifest, ChunkingParams};
use drivolution_core::pack::pack_driver;
use drivolution_core::proto::{ChunkPlan, DrvMsg, DrvOffer};
use drivolution_core::{
    ApiName, BinaryFormat, DriverId, DriverImage, DriverRecord, DriverVersion, DrvError,
    ExpirationPolicy, PermissionRule, RenewPolicy, SigningKey, TransferMethod, TrustStore,
    DRIVOLUTION_PORT,
};
use drivolution_depot::DriverDepot;
use drivolution_server::{attach_in_database, launch_standalone, DrivolutionServer, ServerConfig};
use minidb::wire::DbServer;
use minidb::{MiniDb, Value};
use netsim::{Addr, FnService, Network};

const LEASE_MS: u64 = 10_000;

struct Rig {
    net: Network,
    db: Arc<MiniDb>,
    srv: Arc<DrivolutionServer>,
    url: DbUrl,
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

fn rig(config: ServerConfig) -> Rig {
    let net = Network::new();
    let db = Arc::new(MiniDb::with_clock("orders", net.clock().clone()));
    {
        let mut s = db.admin_session();
        db.exec(&mut s, "CREATE TABLE items (id INTEGER PRIMARY KEY)")
            .unwrap();
        db.exec(&mut s, "INSERT INTO items VALUES (1), (2), (3)")
            .unwrap();
    }
    net.bind_arc(Addr::new("db1", 5432), Arc::new(DbServer::new(db.clone())))
        .unwrap();
    let srv =
        attach_in_database(&net, db.clone(), Addr::new("db1", DRIVOLUTION_PORT), config).unwrap();
    srv.install_driver(&record(1, 1, DriverVersion::new(1, 0, 0)))
        .unwrap();
    // The rule defers the transfer method to the server default and uses
    // AFTER_CLOSE so revocation tests observe the paper's "existing
    // connections can remain active with the revoked driver" behaviour.
    srv.add_rule(
        &PermissionRule::any(DriverId(1))
            .with_lease_ms(LEASE_MS as i64)
            .with_transfer(TransferMethod::Any)
            .with_policies(RenewPolicy::Renew, ExpirationPolicy::AfterClose),
    )
    .unwrap();
    Rig {
        net,
        db,
        srv,
        url: DbUrl::direct(Addr::new("db1", 5432), "orders"),
    }
}

fn boot(rig: &Rig) -> Arc<Bootloader> {
    let config = BootloaderConfig::same_host().trusting(rig.srv.certificate());
    Bootloader::new(&rig.net, Addr::new("app-host", 1), config)
}

fn props() -> ConnectProps {
    ConnectProps::user("admin", "admin")
}

#[test]
fn cold_bootstrap_then_query() {
    let r = rig(ServerConfig::default());
    let b = boot(&r);
    assert!(b.active_version().is_none());
    let mut conn = b.connect(&r.url, &props()).unwrap();
    let rs = conn
        .execute("SELECT count(*) FROM items")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::BigInt(3));
    assert_eq!(b.active_version(), Some(DriverVersion::new(1, 0, 0)));
    assert_eq!(b.stats().downloads, 1);
    // A second connect reuses the loaded driver: no new download.
    let _c2 = b.connect(&r.url, &props()).unwrap();
    assert_eq!(b.stats().downloads, 1);
    assert_eq!(b.registry().len(), 1);
}

#[test]
fn lease_renews_for_same_driver() {
    let r = rig(ServerConfig::default());
    let b = boot(&r);
    let _conn = b.connect(&r.url, &props()).unwrap();
    // Advance into the renewal margin (final 10%).
    r.net.clock().advance_ms(LEASE_MS - LEASE_MS / 20);
    assert_eq!(b.poll(), PollOutcome::Renewed);
    assert_eq!(b.stats().renewals, 1);
    assert_eq!(b.stats().downloads, 1, "renewal must not re-download");
    // The lease was restarted: immediately after, nothing to do.
    assert_eq!(b.poll(), PollOutcome::Idle);
}

#[test]
fn upgrade_swaps_driver_for_new_connections() {
    let r = rig(ServerConfig::default());
    let b = boot(&r);
    let mut old_conn = b.connect(&r.url, &props()).unwrap();

    // DBA installs v2 and routes everyone to it (upgrade policy).
    r.srv
        .install_driver(&record(2, 2, DriverVersion::new(2, 0, 0)))
        .unwrap();
    r.srv.store().remove_permissions(DriverId(1)).unwrap();
    r.srv
        .add_rule(
            &PermissionRule::any(DriverId(2))
                .with_lease_ms(LEASE_MS as i64)
                .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterClose),
        )
        .unwrap();

    r.net.clock().advance_ms(LEASE_MS);
    let outcome = b.poll();
    assert_eq!(
        outcome,
        PollOutcome::Upgraded {
            from: DriverVersion::new(1, 0, 0),
            to: DriverVersion::new(2, 0, 0),
        }
    );
    assert_eq!(b.active_version(), Some(DriverVersion::new(2, 0, 0)));
    // AFTER_CLOSE: the old connection keeps working on the old driver.
    old_conn.execute("SELECT 1").unwrap();
    assert_eq!(b.registry().len(), 2, "old namespace drains, not dropped");
    // New connections use v2.
    let _new_conn = b.connect(&r.url, &props()).unwrap();
    // Closing the old connection lets the old namespace unload.
    old_conn.close().unwrap();
    assert_eq!(b.registry().len(), 1);
}

#[test]
fn after_commit_policy_closes_idle_and_spares_transactions() {
    let r = rig(ServerConfig::default());
    let b = boot(&r);
    let mut idle = b.connect(&r.url, &props()).unwrap();
    let mut busy = b.connect(&r.url, &props()).unwrap();
    busy.begin().unwrap();
    busy.execute("INSERT INTO items VALUES (10)").unwrap();

    // Route to v2 with AFTER_COMMIT.
    r.srv
        .install_driver(&record(2, 2, DriverVersion::new(2, 0, 0)))
        .unwrap();
    r.srv.store().remove_permissions(DriverId(1)).unwrap();
    r.srv
        .add_rule(
            &PermissionRule::any(DriverId(2))
                .with_lease_ms(LEASE_MS as i64)
                .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit),
        )
        .unwrap();
    r.net.clock().advance_ms(LEASE_MS);
    assert!(matches!(b.poll(), PollOutcome::Upgraded { .. }));

    // The idle connection was force-closed with a clear reason.
    let e = idle.execute("SELECT 1").unwrap_err();
    assert!(matches!(e, DkError::Closed(m) if m.contains("upgraded")));
    // The in-transaction connection still works…
    busy.execute("INSERT INTO items VALUES (11)").unwrap();
    // …until it commits, after which it is closed.
    busy.commit().unwrap();
    let e = busy.execute("SELECT 1").unwrap_err();
    assert!(matches!(e, DkError::Closed(_)));
    // Both drained: old namespace unloaded.
    assert_eq!(b.registry().len(), 1);
}

#[test]
fn immediate_policy_terminates_everything() {
    let r = rig(ServerConfig::default());
    let b = boot(&r);
    let mut busy = b.connect(&r.url, &props()).unwrap();
    busy.begin().unwrap();

    r.srv
        .install_driver(&record(2, 2, DriverVersion::new(2, 0, 0)))
        .unwrap();
    r.srv.store().remove_permissions(DriverId(1)).unwrap();
    r.srv
        .add_rule(
            &PermissionRule::any(DriverId(2))
                .with_lease_ms(LEASE_MS as i64)
                .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::Immediate),
        )
        .unwrap();
    r.net.clock().advance_ms(LEASE_MS);
    assert!(matches!(b.poll(), PollOutcome::Upgraded { .. }));
    // Even the in-transaction connection is gone.
    assert!(busy.execute("SELECT 1").is_err());
    assert_eq!(b.registry().len(), 1);
}

#[test]
fn revocation_blocks_new_connections() {
    let r = rig(ServerConfig::default());
    let b = boot(&r);
    let mut conn = b.connect(&r.url, &props()).unwrap();

    // The DBA revokes the only driver.
    r.srv.store().remove_permissions(DriverId(1)).unwrap();
    r.srv
        .add_rule(
            &PermissionRule::any(DriverId(1))
                .with_lease_ms(LEASE_MS as i64)
                .with_policies(RenewPolicy::Revoke, ExpirationPolicy::AfterClose),
        )
        .unwrap();
    r.net.clock().advance_ms(LEASE_MS);
    assert_eq!(b.poll(), PollOutcome::Revoked);
    assert!(b.is_revoked());
    // AFTER_CLOSE: the existing connection keeps working with the revoked
    // driver until the application closes it (§3.4.2).
    conn.execute("SELECT 1").unwrap();
    // New connections are refused with a descriptive error.
    let e = b.connect(&r.url, &props()).unwrap_err();
    assert!(matches!(e, DkError::Drv(DrvError::Policy(m)) if m.contains("revoked")));
    // Once closed, the namespace unloads.
    conn.close().unwrap();
    assert_eq!(b.registry().len(), 0);
}

#[test]
fn server_outage_keeps_current_driver() {
    let r = rig(ServerConfig::default());
    let b = boot(&r);
    let mut conn = b.connect(&r.url, &props()).unwrap();

    // Drivolution server becomes unreachable; the database stays up.
    r.net.unbind(&Addr::new("db1", DRIVOLUTION_PORT));
    r.net.clock().advance_ms(LEASE_MS * 2);
    assert_eq!(b.poll(), PollOutcome::KeptAfterFailure);
    // Running applications are unaffected (§3.2).
    conn.execute("SELECT 1").unwrap();
    // Even new connections keep working on the (expired-lease) driver.
    let _c2 = b.connect(&r.url, &props()).unwrap();
    assert!(b.stats().failed_renewals >= 1);
}

#[test]
fn forged_manifest_size_keeps_current_driver() {
    let r = rig(ServerConfig::default());
    let config = BootloaderConfig::same_host()
        .trusting(r.srv.certificate())
        .with_depot(DriverDepot::in_memory());
    let b = Bootloader::new(&r.net, Addr::new("app-host", 1), config);
    let mut conn = b.connect(&r.url, &props()).unwrap();

    // Whoever answers the renewal now offers an upgrade whose manifest
    // claims u64::MAX bytes in no chunks. The offer is decoded and its
    // delta assembled before any signature is looked at, so the size is
    // an untrusted number: it must fail the install, not size a buffer
    // (it used to panic with `capacity overflow`).
    let forged = DrvMsg::Offer(DrvOffer {
        driver_id: DriverId(2),
        driver_version: Some(DriverVersion::new(2, 0, 0)),
        same_driver: false,
        lease_ms: LEASE_MS,
        renew_policy: RenewPolicy::Upgrade,
        expiration_policy: ExpirationPolicy::AfterClose,
        format: BinaryFormat::Djar,
        location: String::new(),
        size: u64::MAX,
        transfer_method: TransferMethod::Plain,
        options: Vec::new(),
        signature: None,
        content_digest: Some(1),
        chunked: Some(ChunkPlan {
            manifest: ChunkManifest {
                content_digest: 1,
                total_size: u64::MAX,
                params: ChunkingParams::default(),
                chunks: Vec::new(),
            },
            missing: Vec::new(),
            mirrors: Vec::new(),
        }),
    })
    .encode();
    let drivolution = Addr::new("db1", DRIVOLUTION_PORT);
    r.net.unbind(&drivolution);
    r.net
        .bind(drivolution, FnService::new(move |_, _| Ok(forged.clone())))
        .unwrap();
    r.net.clock().advance_ms(LEASE_MS);
    assert_eq!(b.poll(), PollOutcome::KeptAfterFailure);
    assert_eq!(b.stats().failed_renewals, 1);
    assert_eq!(b.active_version(), Some(DriverVersion::new(1, 0, 0)));
    conn.execute("SELECT 1").unwrap();
    let _c2 = b.connect(&r.url, &props()).unwrap();
}

#[test]
fn discovery_finds_standalone_servers() {
    let net = Network::new();
    let db = Arc::new(MiniDb::with_clock("orders", net.clock().clone()));
    net.bind_arc(Addr::new("db1", 5432), Arc::new(DbServer::new(db)))
        .unwrap();
    // Two standalone Drivolution servers on the discovery port.
    let s1 = launch_standalone(
        &net,
        Addr::new("drv1", DRIVOLUTION_PORT),
        ServerConfig::default(),
    )
    .unwrap();
    let s2 = launch_standalone(
        &net,
        Addr::new("drv2", DRIVOLUTION_PORT),
        ServerConfig::default(),
    )
    .unwrap();
    // Only s2 has the driver.
    s2.install_driver(&record(1, 1, DriverVersion::new(1, 0, 0)))
        .unwrap();
    let config = BootloaderConfig::discover()
        .trusting(s1.certificate())
        .trusting(s2.certificate());
    let b = Bootloader::new(&net, Addr::new("app", 1), config);
    let mut conn = b
        .connect(&DbUrl::direct(Addr::new("db1", 5432), "orders"), &props())
        .unwrap();
    conn.execute("SELECT 1").unwrap();
    assert_eq!(b.active_version(), Some(DriverVersion::new(1, 0, 0)));
}

#[test]
fn fixed_server_list_fails_over() {
    let net = Network::new();
    let db = Arc::new(MiniDb::with_clock("orders", net.clock().clone()));
    net.bind_arc(Addr::new("db1", 5432), Arc::new(DbServer::new(db)))
        .unwrap();
    let s1 = launch_standalone(
        &net,
        Addr::new("drv1", DRIVOLUTION_PORT),
        ServerConfig::default(),
    )
    .unwrap();
    let s2 = launch_standalone(
        &net,
        Addr::new("drv2", DRIVOLUTION_PORT),
        ServerConfig::default(),
    )
    .unwrap();
    for s in [&s1, &s2] {
        s.install_driver(&record(1, 1, DriverVersion::new(1, 0, 0)))
            .unwrap();
    }
    net.with_faults(|f| f.take_down("drv1"));
    let config = BootloaderConfig::fixed(vec![
        Addr::new("drv1", DRIVOLUTION_PORT),
        Addr::new("drv2", DRIVOLUTION_PORT),
    ])
    .trusting(s1.certificate())
    .trusting(s2.certificate());
    let b = Bootloader::new(&net, Addr::new("app", 1), config);
    let _conn = b
        .connect(&DbUrl::direct(Addr::new("db1", 5432), "orders"), &props())
        .unwrap();
    assert_eq!(s2.stats().offers, 1);
}

#[test]
fn notify_channel_triggers_immediate_upgrade() {
    let r = rig(ServerConfig::default());
    let config = BootloaderConfig::same_host()
        .trusting(r.srv.certificate())
        .with_notify_channel();
    let b = Bootloader::new(&r.net, Addr::new("app-host", 1), config);
    let _conn = b.connect(&r.url, &props()).unwrap();
    assert_eq!(r.srv.channel_count(), 1);

    // Install v2, route to it, and push the notice — no lease expiry
    // needed (§3.2: "a dedicated channel … allows the Drivolution Server
    // to immediately signal that a new driver is available").
    r.srv
        .install_driver(&record(2, 2, DriverVersion::new(2, 0, 0)))
        .unwrap();
    r.srv.store().remove_permissions(DriverId(1)).unwrap();
    r.srv
        .add_rule(
            &PermissionRule::any(DriverId(2))
                .with_lease_ms(LEASE_MS as i64)
                .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit),
        )
        .unwrap();
    r.srv.notify_upgrade("orders");
    // No clock advance: the pushed notice alone forces the renewal.
    assert!(matches!(b.poll(), PollOutcome::Upgraded { .. }));
    assert_eq!(b.active_version(), Some(DriverVersion::new(2, 0, 0)));
}

#[test]
fn a_notice_whose_renewal_failed_still_forces_the_next_one() {
    let r = rig(ServerConfig::default());
    let config = BootloaderConfig::same_host()
        .trusting(r.srv.certificate())
        .with_notify_channel();
    let b = Bootloader::new(&r.net, Addr::new("app-host", 1), config);
    let _conn = b.connect(&r.url, &props()).unwrap();
    r.srv
        .install_driver(&record(2, 2, DriverVersion::new(2, 0, 0)))
        .unwrap();
    r.srv.store().remove_permissions(DriverId(1)).unwrap();
    r.srv
        .add_rule(
            &PermissionRule::any(DriverId(2))
                .with_lease_ms(LEASE_MS as i64)
                .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit),
        )
        .unwrap();
    r.srv.notify_upgrade("orders");

    // The renewal the notice forces fails; the lease is still far from
    // renew-due.
    let drv = Addr::new("db1", DRIVOLUTION_PORT);
    r.net.unbind(&drv);
    assert_eq!(b.poll(), PollOutcome::KeptAfterFailure);
    r.net.bind_arc(drv, r.srv.clone()).unwrap();
    r.net.clock().advance_ms(100);
    assert_eq!(
        b.poll(),
        PollOutcome::Upgraded {
            from: DriverVersion::new(1, 0, 0),
            to: DriverVersion::new(2, 0, 0),
        }
    );
    assert_eq!(b.stats().failed_renewals, 1);
    // The completed exchange paid the debt.
    assert_eq!(b.poll(), PollOutcome::Idle);
}

#[test]
fn signatures_are_required_and_verified() {
    let key = SigningKey::from_seed(42);
    let mut trust = TrustStore::new();
    trust.trust(key.verifying_key());

    // Server signs with the trusted key: accepted.
    let r = rig(ServerConfig {
        signing: Some(key),
        ..ServerConfig::default()
    });
    let config = BootloaderConfig::same_host()
        .trusting(r.srv.certificate())
        .requiring_signatures(trust.clone());
    let b = Bootloader::new(&r.net, Addr::new("app-host", 1), config);
    b.connect(&r.url, &props()).unwrap();

    // Server does not sign: rejected by the trusted wrapper.
    let r2 = rig(ServerConfig::default());
    let config = BootloaderConfig::same_host()
        .trusting(r2.srv.certificate())
        .requiring_signatures(trust.clone());
    let b2 = Bootloader::new(&r2.net, Addr::new("app-host", 1), config);
    let e = b2.connect(&r2.url, &props()).unwrap_err();
    assert!(matches!(e, DkError::Drv(DrvError::SignatureInvalid(_))));

    // Server signs with an untrusted key: rejected.
    let r3 = rig(ServerConfig {
        signing: Some(SigningKey::from_seed(666)),
        ..ServerConfig::default()
    });
    let config = BootloaderConfig::same_host()
        .trusting(r3.srv.certificate())
        .requiring_signatures(trust);
    let b3 = Bootloader::new(&r3.net, Addr::new("app-host", 1), config);
    let e = b3.connect(&r3.url, &props()).unwrap_err();
    assert!(matches!(e, DkError::Drv(DrvError::SignatureInvalid(_))));
}

#[test]
fn untrusted_server_certificate_is_rejected() {
    // The bootloader pins no certificate: a sealed transfer from any
    // server must fail (man-in-the-middle defence, §3.1).
    let r = rig(ServerConfig::default());
    let config = BootloaderConfig::same_host(); // no trusting(...)
    let b = Bootloader::new(&r.net, Addr::new("app-host", 1), config);
    let e = b.connect(&r.url, &props()).unwrap_err();
    assert!(matches!(e, DkError::Drv(DrvError::CertificateUntrusted(_))));
}

#[test]
fn plain_transfer_needs_no_trust_but_is_opt_in() {
    let r = rig(ServerConfig {
        default_transfer: TransferMethod::Plain,
        ..ServerConfig::default()
    });
    let b = Bootloader::new(
        &r.net,
        Addr::new("app-host", 1),
        BootloaderConfig::same_host(),
    );
    b.connect(&r.url, &props()).unwrap();
}

#[test]
fn lazy_extension_fetch_on_geo_query() {
    let r = rig(ServerConfig::default());
    r.srv.assembler().register(drivolution_core::Extension::Gis);
    let config = BootloaderConfig::same_host()
        .trusting(r.srv.certificate())
        .with_lazy_extensions();
    let b = Bootloader::new(&r.net, Addr::new("app-host", 1), config);
    let mut conn = b.connect(&r.url, &props()).unwrap();
    // The plain driver lacks GIS; the bootloader traps the failure,
    // fetches the package, reconnects, and retries (§5.4.1).
    let rs = conn.geo_query("POINT(3 4)").unwrap().rows().unwrap();
    assert_eq!(rs.rows[0][0], Value::str("POINT(3 4)"));
    assert_eq!(b.stats().extension_fetches, 1);
    // Without lazy fetch, the same call fails.
    let b2 = Bootloader::new(
        &r.net,
        Addr::new("other-host", 1),
        BootloaderConfig::same_host().trusting(r.srv.certificate()),
    );
    let mut c2 = b2.connect(&r.url, &props()).unwrap();
    assert!(matches!(
        c2.geo_query("POINT(1 1)"),
        Err(DkError::ExtensionMissing(_))
    ));
}

#[test]
fn lazy_extension_fetch_waits_for_the_transaction_boundary() {
    let r = rig(ServerConfig::default());
    r.srv.assembler().register(drivolution_core::Extension::Gis);
    let config = BootloaderConfig::same_host()
        .trusting(r.srv.certificate())
        .with_lazy_extensions();
    let b = Bootloader::new(&r.net, Addr::new("app-host", 1), config);
    let mut conn = b.connect(&r.url, &props()).unwrap();
    conn.begin().unwrap();
    conn.execute("INSERT INTO items VALUES (4)").unwrap();
    // Reconnecting onto the enriched driver would sever the open
    // transaction: the typed error comes back instead.
    assert!(matches!(
        conn.geo_query("POINT(3 4)"),
        Err(DkError::ExtensionMissing(_))
    ));
    assert!(conn.in_transaction());
    assert_eq!(b.stats().extension_fetches, 0);
    conn.commit().unwrap();
    assert_eq!(r.db.table_len("items").unwrap(), 4);
    // At the boundary the lazy fetch goes ahead.
    let rs = conn.geo_query("POINT(3 4)").unwrap().rows().unwrap();
    assert_eq!(rs.rows[0][0], Value::str("POINT(3 4)"));
    assert_eq!(b.stats().extension_fetches, 1);
}

#[test]
fn release_driver_gives_license_back() {
    let r = rig(ServerConfig::default());
    r.srv.licenses().set_limit(DriverId(1), 1);
    let b1 = boot(&r);
    let _c1 = b1.connect(&r.url, &props()).unwrap();

    // Seat exhausted: a second machine is denied.
    let b2 = Bootloader::new(
        &r.net,
        Addr::new("second-host", 1),
        BootloaderConfig::same_host().trusting(r.srv.certificate()),
    );
    let e = b2.connect(&r.url, &props()).unwrap_err();
    assert!(matches!(e, DkError::Drv(DrvError::PermissionDenied(_))));

    // First machine releases; second succeeds.
    b1.release_driver().unwrap();
    b2.connect(&r.url, &props()).unwrap();
}

#[test]
fn server_enforced_options_reach_the_driver() {
    let r = rig(ServerConfig::default());
    r.srv.store().remove_permissions(DriverId(1)).unwrap();
    r.srv
        .add_rule(
            &PermissionRule::any(DriverId(1))
                .with_lease_ms(LEASE_MS as i64)
                .with_options("fetch_size=7"),
        )
        .unwrap();
    let b = boot(&r);
    let _conn = b.connect(&r.url, &props()).unwrap();
    let ns = b.registry().active().unwrap();
    assert_eq!(
        *ns.options,
        vec![("fetch_size".to_string(), "7".to_string())]
    );
}

#[test]
fn lease_is_logged_server_side() {
    let r = rig(ServerConfig::default());
    let b = boot(&r);
    let _conn = b.connect(&r.url, &props()).unwrap();
    assert_eq!(r.srv.store().lease_count().unwrap(), 1);
    r.net.clock().advance_ms(LEASE_MS);
    assert_eq!(b.poll(), PollOutcome::Renewed);
    assert_eq!(r.srv.store().lease_count().unwrap(), 2);
}

#[test]
fn wrong_file_bytes_are_rejected_by_package_checks() {
    // Corrupt the staged driver by installing a record whose binary is
    // garbage: the bootloader must fail at decode, not load garbage.
    let r = rig(ServerConfig {
        default_transfer: TransferMethod::Plain,
        ..ServerConfig::default()
    });
    r.srv.store().remove_permissions(DriverId(1)).unwrap();
    r.srv.store().remove_driver(DriverId(1)).unwrap();
    r.srv
        .install_driver(&DriverRecord::new(
            DriverId(9),
            ApiName::rdbc(),
            BinaryFormat::Djar,
            Bytes::from_static(b"this is not a djar archive"),
        ))
        .unwrap();
    let b = Bootloader::new(
        &r.net,
        Addr::new("app-host", 1),
        BootloaderConfig::same_host(),
    );
    let e = b.connect(&r.url, &props()).unwrap_err();
    assert!(matches!(e, DkError::Drv(DrvError::BadPackage(_))));
}
