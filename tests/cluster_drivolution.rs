//! Figures 5 and 6 end to end: bootloader-equipped clients obtain the
//! *Sequoia* driver through Drivolution and talk to the replicated
//! cluster — including the embedded, replicated server configuration
//! that removes the single point of failure.

use std::sync::Arc;

use drivolution::cluster::{
    cluster_image, Backend, ClusterDriver, ClusterDriverFactory, Controller, Group, VirtualDb,
    CLUSTER_V2,
};
use drivolution::core::pack::pack_driver;
use drivolution::core::DriverFlavor;
use drivolution::prelude::*;

fn sequoia_record(id: i64, version: DriverVersion) -> DriverRecord {
    DriverRecord::new(
        DriverId(id),
        ApiName::rdbc(),
        BinaryFormat::Djar,
        pack_driver(
            BinaryFormat::Djar,
            &cluster_image("sequoia-driver", version, version.major as u16),
        ),
    )
    .with_version(version)
}

fn build_cluster(net: &Network) -> (Arc<Controller>, Arc<Controller>, Vec<Arc<MiniDb>>) {
    let group = Group::new("g");
    let mut dbs = Vec::new();
    let mut ctrls = Vec::new();
    for id in 1u32..=2 {
        let mut backends = Vec::new();
        for r in 0..2 {
            let host = format!("replica{id}{r}");
            let db = Arc::new(MiniDb::with_clock("vdb", net.clock().clone()));
            {
                let mut s = db.admin_session();
                db.exec(&mut s, "CREATE TABLE t (id INTEGER PRIMARY KEY)")
                    .unwrap();
            }
            net.bind_arc(
                Addr::new(host.clone(), 5432),
                Arc::new(DbServer::new(db.clone())),
            )
            .unwrap();
            let driver = legacy_driver(net, &Addr::new(format!("controller{id}"), 1), 2).unwrap();
            backends.push(Backend::with_driver(
                host.clone(),
                driver,
                DbUrl::direct(Addr::new(host, 5432), "vdb"),
                ConnectProps::user("admin", "admin"),
            ));
            dbs.push(db);
        }
        let ctrl = Controller::launch(
            net,
            id,
            Addr::new(format!("controller{id}"), 25322),
            VirtualDb::new("vdb", backends),
            CLUSTER_V2,
        )
        .unwrap();
        group.join(&ctrl);
        ctrls.push(ctrl);
    }
    (ctrls[0].clone(), ctrls[1].clone(), dbs)
}

fn cluster_client(
    net: &Network,
    host: &str,
    servers: &[Addr],
    certs: &[&drivolution::core::Certificate],
) -> Arc<Bootloader> {
    let local = Addr::new(host, 1);
    let mut config = BootloaderConfig::fixed(servers.to_vec()).with_notify_channel();
    for c in certs {
        config = config.trusting(c);
    }
    let b = Bootloader::new(net, local.clone(), config);
    b.vm().register_factory(
        DriverFlavor::Cluster,
        ClusterDriverFactory::new(net.clone(), local),
    );
    b
}

#[test]
fn figure_5_standalone_distribution_service() {
    let net = Network::new();
    let (_c1, _c2, dbs) = build_cluster(&net);
    let srv = launch_standalone(
        &net,
        Addr::new("drvsrv", DRIVOLUTION_PORT),
        ServerConfig::default(),
    )
    .unwrap();
    srv.install_driver(&sequoia_record(1, DriverVersion::new(1, 0, 0)))
        .unwrap();

    let url: DbUrl = "rdbc:cluster://controller1:25322,controller2:25322/vdb"
        .parse()
        .unwrap();
    let b = cluster_client(
        &net,
        "web0",
        &[Addr::new("drvsrv", DRIVOLUTION_PORT)],
        &[srv.certificate()],
    );
    let mut conn = b.connect(&url, &ConnectProps::user("app", "pw")).unwrap();
    conn.execute("INSERT INTO t VALUES (1)").unwrap();
    for db in &dbs {
        assert_eq!(db.table_len("t").unwrap(), 1);
    }

    // The standalone server is a single point of failure for *new*
    // requests only: with it down, existing clients keep working…
    net.with_faults(|f| f.take_down("drvsrv"));
    conn.execute("INSERT INTO t VALUES (2)").unwrap();
    net.clock().advance_ms(7_200_000);
    assert_eq!(b.poll(), PollOutcome::KeptAfterFailure);
    conn.execute("INSERT INTO t VALUES (3)").unwrap();
    // …but a fresh machine cannot bootstrap.
    let fresh = cluster_client(
        &net,
        "web-new",
        &[Addr::new("drvsrv", DRIVOLUTION_PORT)],
        &[srv.certificate()],
    );
    assert!(fresh
        .connect(&url, &ConnectProps::user("app", "pw"))
        .is_err());
}

#[test]
fn figure_6_embedded_replicated_servers_have_no_spof() {
    let net = Network::new();
    let (c1, c2, dbs) = build_cluster(&net);
    let s1 = c1.embed_drivolution(ServerConfig::default()).unwrap();
    let s2 = c2.embed_drivolution(ServerConfig::default()).unwrap();
    s1.install_driver(&sequoia_record(1, DriverVersion::new(1, 0, 0)))
        .unwrap();
    // Replicated instantly to the peer.
    assert_eq!(s2.store().records().unwrap().len(), 1);

    let servers = [
        Addr::new("controller1", DRIVOLUTION_PORT),
        Addr::new("controller2", DRIVOLUTION_PORT),
    ];
    let url: DbUrl = "rdbc:cluster://controller1:25322,controller2:25322/vdb"
        .parse()
        .unwrap();
    let b = cluster_client(
        &net,
        "web0",
        &servers,
        &[s1.certificate(), s2.certificate()],
    );
    let mut conn = b.connect(&url, &ConnectProps::user("app", "pw")).unwrap();
    conn.execute("INSERT INTO t VALUES (1)").unwrap();

    // Kill controller 1 entirely (client port + embedded server): a
    // fresh machine still bootstraps from controller 2, and traffic
    // flows.
    c1.stop();
    let fresh = cluster_client(
        &net,
        "web1",
        &servers,
        &[s1.certificate(), s2.certificate()],
    );
    let mut conn2 = fresh
        .connect(&url, &ConnectProps::user("app", "pw"))
        .unwrap();
    conn2.execute("INSERT INTO t VALUES (2)").unwrap();
    assert_eq!(dbs[2].table_len("t").unwrap(), 2);

    // Rolling upgrade completes: restart c1, upgrade the sequoia driver
    // cluster-wide with one insert + notices from either server.
    c1.start().unwrap();
    s2.install_driver(&sequoia_record(2, DriverVersion::new(2, 0, 0)))
        .unwrap();
    s2.store().remove_permissions(DriverId(1)).unwrap();
    s2.add_rule(
        &PermissionRule::any(DriverId(2))
            .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit),
    )
    .unwrap();
    // Replication reached controller 1's server too.
    assert_eq!(s1.store().records().unwrap().len(), 2);
    s1.notify_upgrade("vdb");
    s2.notify_upgrade("vdb");
    assert!(matches!(b.poll(), PollOutcome::Upgraded { .. }));
    assert!(matches!(fresh.poll(), PollOutcome::Upgraded { .. }));
    assert_eq!(b.active_version(), Some(DriverVersion::new(2, 0, 0)));

    // The upgraded driver still serves traffic.
    let mut conn3 = b.connect(&url, &ConnectProps::user("app", "pw")).unwrap();
    conn3.execute("INSERT INTO t VALUES (3)").unwrap();
}

/// A cluster connection's first controller is chosen by its own driver,
/// not by whatever connected before it in the process: two worlds built
/// one after the other start at the same controller, and each driver
/// still spreads its connections over both.
#[test]
fn two_worlds_built_one_after_the_other_pick_the_same_first_controller() {
    let controllers = ["controller1", "controller2"].map(|h| Addr::new(h, 25322));
    let world = || {
        let net = Network::new();
        let _cluster = build_cluster(&net);
        let image = cluster_image("sequoia-driver", DriverVersion::new(2, 0, 0), 2);
        let driver = ClusterDriver::new(image, net.clone(), Addr::new("web0", 1)).unwrap();
        let url: DbUrl = "rdbc:cluster://controller1:25322,controller2:25322/vdb"
            .parse()
            .unwrap();
        let props = ConnectProps::user("app", "pw");
        let mut reached = Vec::new();
        for _ in 0..3 {
            let before = controllers
                .clone()
                .map(|c| net.stats().for_addr(&c).requests);
            let _conn = driver.connect(&url, &props).unwrap();
            let after = controllers
                .clone()
                .map(|c| net.stats().for_addr(&c).requests);
            reached.push((0..2).filter(|&i| after[i] > before[i]).collect::<Vec<_>>());
        }
        reached
    };
    let first = world();
    assert_eq!(first, vec![vec![0], vec![1], vec![0]]);
    assert_eq!(world(), first);
}
