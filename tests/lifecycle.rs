//! The §2 lifecycle and its failure modes: conventional drivers fail at
//! steps 4 (load), 5 (protocol check), and 6 (authenticate); the
//! Drivolution lifecycle avoids each mismatch by construction because the
//! database hands out the matching driver itself.

use std::sync::Arc;

use driverkit::{DkError, DriverVm};
use drivolution::core::pack::pack_driver;
use drivolution::core::{AuthKind, Extension};
use drivolution::minidb::AuthMethod;
use drivolution::prelude::*;

fn db_rig(protos: &[u16]) -> (Network, Arc<MiniDb>, DbUrl) {
    let net = Network::new();
    let db = Arc::new(MiniDb::with_clock("orders", net.clock().clone()));
    db.with_auth(|a| a.create_user("app", "pw").unwrap());
    net.bind_arc(
        Addr::new("db1", 5432),
        Arc::new(drivolution::minidb::wire::DbServer::with_versions(
            db.clone(),
            protos,
        )),
    )
    .unwrap();
    (net, db, DbUrl::direct(Addr::new("db1", 5432), "orders"))
}

#[test]
fn step_4_failure_wrong_binary_or_api() {
    // "The main sources of incompatibility are mismatches between the
    // binary format of the driver and the hardware platform or
    // incompatible compilation/linking options."
    let (net, _db, _url) = db_rig(&[1]);
    let vm = DriverVm::new(net.clone(), Addr::new("app", 1));

    // Garbage bytes: fails at load.
    let e = vm
        .load(
            BinaryFormat::Djar,
            bytes::Bytes::from_static(b"not a driver"),
        )
        .unwrap_err();
    assert!(matches!(e, DkError::Drv(DrvError::BadPackage(_))));

    // Wrong container format for the bytes: fails at load.
    let image = DriverImage::new("d", DriverVersion::new(1, 0, 0), 1);
    let djar = pack_driver(BinaryFormat::Djar, &image);
    let e = vm.load(BinaryFormat::Dzip, djar).unwrap_err();
    assert!(matches!(e, DkError::Drv(DrvError::BadPackage(_))));

    // Wrong API (an ODBC driver in an RDBC application): fails at load.
    let mut odbc = DriverImage::new("odbc-d", DriverVersion::new(1, 0, 0), 1);
    odbc.api_name = ApiName::new("ODBC");
    let e = vm
        .load(BinaryFormat::Djar, pack_driver(BinaryFormat::Djar, &odbc))
        .unwrap_err();
    assert!(matches!(e, DkError::Unsupported(_)));
}

#[test]
fn step_5_failure_protocol_mismatch_at_connect() {
    // Server upgraded to speak only v2/v3; a statically linked v1 driver
    // fails exactly at connect time.
    let (net, _db, url) = db_rig(&[2, 3]);
    let old_driver = legacy_driver(&net, &Addr::new("app", 1), 1).unwrap();
    let e = old_driver
        .connect(&url, &ConnectProps::user("app", "pw"))
        .unwrap_err();
    assert!(e.to_string().contains("protocol version 1"));
}

#[test]
fn step_6_failure_auth_method_mismatch() {
    // Database requires token (Kerberos-like) auth; a password-only
    // driver passes steps 4–5 and dies at step 6.
    let (net, db, url) = db_rig(&[1, 2, 3]);
    db.with_auth(|a| a.set_accepted_methods(&[AuthMethod::Token]));
    let d = legacy_driver(&net, &Addr::new("app", 1), 1).unwrap();
    let e = d
        .connect(&url, &ConnectProps::user("app", "pw"))
        .unwrap_err();
    assert!(matches!(
        e,
        DkError::Db(drivolution::minidb::DbError::Auth(_))
    ));
}

#[test]
fn drivolution_sidesteps_all_three_mismatches() {
    // Same hostile environment: v2/v3-only server requiring token auth.
    let (net, db, url) = db_rig(&[2, 3]);
    db.with_auth(|a| a.set_accepted_methods(&[AuthMethod::Token]));
    let realm = db.with_auth(|a| a.realm_secret().to_string());

    let srv = attach_in_database(
        &net,
        db,
        Addr::new("db1", DRIVOLUTION_PORT),
        ServerConfig::default(),
    )
    .unwrap();
    // The DBA publishes the *matching* driver: v3 protocol, token auth,
    // Kerberos package with the right realm secret.
    let mut image = DriverImage::new("matching-driver", DriverVersion::new(3, 0, 0), 3);
    image.auth_kinds = vec![AuthKind::Token];
    image.extensions.push(Extension::Kerberos {
        realm_secret: realm,
    });
    srv.install_driver(&DriverRecord::new(
        DriverId(1),
        ApiName::rdbc(),
        BinaryFormat::Djar,
        pack_driver(BinaryFormat::Djar, &image),
    ))
    .unwrap();

    // The client knows nothing about protocols, auth methods, or realm
    // secrets — the bootloader fetches a driver that just works.
    let boot = Bootloader::new(
        &net,
        Addr::new("app", 1),
        BootloaderConfig::same_host().trusting(srv.certificate()),
    );
    let mut conn = boot
        .connect(&url, &ConnectProps::user("app", "pw"))
        .unwrap();
    conn.execute("SELECT 1").unwrap();
    // "Clients are guaranteed to get the correct driver version to access
    // the desired database."
    assert_eq!(boot.active_version(), Some(DriverVersion::new(3, 0, 0)));
}

#[test]
fn drivolution_lifecycle_step_counts() {
    use drivolution::fleet::ops;
    // §2: seven steps to first query, nine executed (ten numbered) per
    // update. §3.2: four steps once, then one step per update.
    assert_eq!(ops::sota_initial_install().step_count(), 7);
    assert_eq!(ops::sota_driver_update().step_count(), 9);
    assert_eq!(ops::PAPER_SOTA_UPDATE_STEPS, 10);
    assert_eq!(ops::drv_initial_install().step_count(), 4);
    assert_eq!(ops::drv_driver_update().step_count(), 1);
}

/// The lease table holds one row per binding (§4.1.1: "the same format
/// as the distribution table"): `N` clients renewed for `K` rounds, each
/// at its own instant, leave `N` rows, each holding its client's last
/// grant.
#[test]
fn a_renewed_fleet_holds_one_lease_row_per_client_with_its_last_grant() {
    const N: usize = 6;
    const K: usize = 4;
    const LEASE_MS: u64 = 60_000;
    let (net, db, url) = db_rig(&[1]);
    db.with_auth(|a| a.create_user("app2", "pw").unwrap());
    let srv = attach_in_database(
        &net,
        db.clone(),
        Addr::new("db1", DRIVOLUTION_PORT),
        ServerConfig::default(),
    )
    .unwrap();
    let image = DriverImage::new("d", DriverVersion::new(1, 0, 0), 1);
    srv.install_driver(&DriverRecord::new(
        DriverId(1),
        ApiName::rdbc(),
        BinaryFormat::Djar,
        pack_driver(BinaryFormat::Djar, &image),
    ))
    .unwrap();
    srv.add_rule(&PermissionRule::any(DriverId(1)).with_lease_ms(LEASE_MS as i64))
        .unwrap();
    // Two users on one host are two bindings, as are two hosts.
    let clients: Vec<_> = (0..N)
        .map(|i| {
            let config = BootloaderConfig::same_host().trusting(srv.certificate());
            let boot = Bootloader::new(&net, Addr::new(format!("app{}", i / 2), 1), config);
            let user = ["app", "app2"][i % 2];
            drop(boot.connect(&url, &ConnectProps::user(user, "pw")).unwrap());
            (format!("app{}", i / 2), user, boot)
        })
        .collect();
    let mut last = vec![0; N];
    for _ in 0..K {
        net.clock().advance_ms(LEASE_MS);
        for (i, (_, _, boot)) in clients.iter().enumerate() {
            net.clock().advance_ms(1);
            assert_eq!(boot.poll(), PollOutcome::Renewed);
            last[i] = net.clock().now_ms() as i64;
        }
    }
    assert_eq!(srv.stats().renewals, (N * K) as u64);
    let mut s = db.admin_session();
    let rows = db
        .exec(
            &mut s,
            "SELECT client_ip, user, granted_at FROM information_schema.leases \
             ORDER BY client_ip, user",
        )
        .unwrap()
        .rows()
        .unwrap()
        .rows;
    let want: Vec<Vec<Value>> = clients
        .iter()
        .zip(&last)
        .map(|((host, user, _), at)| {
            vec![
                Value::str(host.as_str()),
                Value::str(*user),
                Value::Timestamp(*at),
            ]
        })
        .collect();
    assert_eq!(rows, want);
}
