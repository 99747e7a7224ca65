//! Middleware-based database replication — the paper's Figures 5 and 6.
//!
//! Two Sequoia-like controllers replicate four `minidb` backends. In
//! `standalone` mode (Figure 5) one external Drivolution server feeds the
//! whole cluster; in `embedded` mode (Figure 6) each controller embeds a
//! replicated Drivolution server, removing the single point of failure.
//! Both modes demonstrate a live Sequoia-driver upgrade under client
//! traffic with zero failed transactions.
//!
//! Run with: `cargo run --example cluster_upgrade -- [standalone|embedded]`

use std::sync::Arc;
use std::time::Duration;

use drivolution::cluster::{
    cluster_image, Backend, ClusterDriverFactory, Controller, Group, VirtualDb, CLUSTER_V2,
};
use drivolution::core::pack::pack_driver;
use drivolution::core::DriverFlavor;
use drivolution::fleet::workload;
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

fn build_cluster(net: &Network) -> (Arc<Controller>, Arc<Controller>) {
    let group = Group::new("cluster");
    let mut controllers = Vec::new();
    for id in 1u32..=2 {
        let mut backends = Vec::new();
        for r in 0..2 {
            let host = format!("replica{id}{r}");
            let db = Arc::new(MiniDb::with_clock("vdb", net.clock().clone()));
            net.bind_arc(Addr::new(host.clone(), 5432), Arc::new(DbServer::new(db)))
                .unwrap();
            let driver = legacy_driver(net, &Addr::new(format!("controller{id}"), 1), 2).unwrap();
            backends.push(Backend::with_driver(
                host.clone(),
                driver,
                DbUrl::direct(Addr::new(host, 5432), "vdb"),
                ConnectProps::user("admin", "admin"),
            ));
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
        controllers.push(ctrl);
    }
    (controllers[0].clone(), controllers[1].clone())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "embedded".into());
    let net = Network::new();
    let (c1, c2) = build_cluster(&net);
    println!("cluster up: 2 controllers × 2 backends, virtual database 'vdb'");

    // --- drivolution servers per mode ------------------------------------
    let (servers, locator) = match mode.as_str() {
        "standalone" => {
            // Figure 5: one dedicated distribution service (dual-URL
            // clients), a single point of failure.
            let srv = launch_standalone(
                &net,
                Addr::new("drvsrv", DRIVOLUTION_PORT),
                ServerConfig::default(),
            )?;
            println!("mode=standalone: one drivolution server at drvsrv (Figure 5)");
            (
                vec![srv],
                ServerLocator::Fixed(vec![Addr::new("drvsrv", DRIVOLUTION_PORT)]),
            )
        }
        _ => {
            // Figure 6: embedded, replicated servers — no SPOF.
            let s1 = c1.embed_drivolution(ServerConfig::default())?;
            let s2 = c2.embed_drivolution(ServerConfig::default())?;
            println!("mode=embedded: drivolution servers inside both controllers (Figure 6)");
            (
                vec![s1, s2],
                ServerLocator::Fixed(vec![
                    Addr::new("controller1", DRIVOLUTION_PORT),
                    Addr::new("controller2", DRIVOLUTION_PORT),
                ]),
            )
        }
    };
    // Install the v1 Sequoia driver on the first server; in embedded mode
    // it replicates to the peer instantly.
    servers[0].install_driver(&sequoia_record(1, DriverVersion::new(1, 0, 0)))?;
    servers[0].add_rule(
        &PermissionRule::any(DriverId(1))
            .with_lease_ms(600_000)
            .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit),
    )?;
    if servers.len() == 2 {
        println!(
            "driver tables replicated: peer server now holds {} driver(s)",
            servers[1].store().records()?.len()
        );
    }

    // --- clients with bootloaders + cluster-driver factory ---------------
    let url: DbUrl = "rdbc:cluster://controller1:25322,controller2:25322/vdb".parse()?;
    let props = ConnectProps::user("app", "pw");
    let mut clients = Vec::new();
    for i in 0..4 {
        let local = Addr::new(format!("web{i}"), 1);
        let mut config = BootloaderConfig::fixed(match &locator {
            ServerLocator::Fixed(v) => v.clone(),
            _ => unreachable!(),
        })
        // Self-driving lifecycle: the upgrade below lands via each
        // client's scheduler-registered lifecycle task, not a manual loop.
        .self_driving(Duration::from_secs(60))
        .with_notify_channel();
        for s in &servers {
            config = config.trusting(s.certificate());
        }
        let b = Bootloader::new(&net, local.clone(), config);
        // Teach the VM to interpret cluster-flavor driver images.
        b.vm().register_factory(
            DriverFlavor::Cluster,
            ClusterDriverFactory::new(net.clone(), local),
        );
        clients.push(b);
    }
    {
        let mut c0 = clients[0].connect(&url, &props)?;
        workload::setup(&mut c0)?;
    }
    println!("4 clients bootstrapped the v1 sequoia driver through drivolution");

    // --- traffic + live upgrade ------------------------------------------
    let mut order_id = 0i64;
    let mut run_round = |clients: &[Arc<Bootloader>]| -> Result<usize, Box<dyn std::error::Error>> {
        let mut done = 0;
        for b in clients {
            let mut conn = b.connect(&url, &props)?;
            order_id += 1;
            workload::run_txn(&mut conn, order_id)?;
            done += 1;
        }
        Ok(done)
    };
    run_round(&clients)?;

    println!("\npublishing sequoia-driver v2 (one INSERT) and pushing notices…");
    servers[0].install_driver(&sequoia_record(2, DriverVersion::new(2, 0, 0)))?;
    servers[0].store().remove_permissions(DriverId(1))?;
    servers[0].add_rule(
        &PermissionRule::any(DriverId(2))
            .with_lease_ms(600_000)
            .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit),
    )?;
    for s in &servers {
        s.notify_upgrade("vdb");
    }
    // Pump the scheduler one poll interval: every client's lifecycle
    // task drains the pushed notice and hot-swaps on its own.
    let now = net.clock().now_ms();
    net.run_until(now + 61_000);
    let upgraded: u64 = clients.iter().map(|b| b.stats().upgrades).sum();
    println!("{upgraded}/4 clients hot-swapped to v2; transactions continue:");
    run_round(&clients)?;

    // --- rolling controller restart under embedded mode -------------------
    if mode != "standalone" {
        println!("\nrolling restart: controller1 down…");
        c1.stop();
        run_round(&clients)?; // failover to controller2
        c1.start()?;
        println!("controller1 back; traffic never stopped");
        run_round(&clients)?;
    } else {
        println!("\nstandalone caveat (paper §5.3.1): the drivolution server is a single");
        println!("point of failure for *new* driver requests — running clients are unaffected.");
        net.with_faults(|f| f.take_down("drvsrv"));
        run_round(&clients)?;
        net.with_faults(|f| f.restore("drvsrv"));
        println!("drivolution server was down during that round; all transactions still committed");
    }

    // --- verify full replication -----------------------------------------
    let mut conn = clients[0].connect(&url, &props)?;
    let n = workload::count_orders(&mut conn)?;
    println!("\ntotal committed orders visible through the cluster: {n}");
    let _ = c2;
    Ok(())
}
