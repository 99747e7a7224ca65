//! Master/slave failover by driver swap — the paper's Figure 4.
//!
//! Two pre-configured drivers exist: `DBmaster` (pinned to the master)
//! and `DBslave` (pinned to the slave). "Whatever host name is found in
//! the URL specified by the client application, it is ignored." Failover
//! = mark the master driver expired, serve the slave driver, push a
//! notice; every client reconnects to the slave without any client-side
//! reconfiguration. Failback is the same swap in reverse.
//!
//! Run with: `cargo run --example master_slave_failover`

use std::sync::Arc;
use std::time::Duration;

use drivolution::core::pack::pack_driver;
use drivolution::prelude::*;

fn db_with_tag(net: &Network, host: &str, tag: &str) -> Arc<MiniDb> {
    let db = Arc::new(MiniDb::with_clock("accounts", net.clock().clone()));
    {
        let mut s = db.admin_session();
        db.exec(&mut s, "CREATE TABLE whoami (role VARCHAR)")
            .unwrap();
        db.exec(&mut s, &format!("INSERT INTO whoami VALUES ('{tag}')"))
            .unwrap();
    }
    net.bind_arc(Addr::new(host, 5432), Arc::new(DbServer::new(db.clone())))
        .unwrap();
    db
}

fn preconfigured_record(id: i64, name: &str, target: &str) -> DriverRecord {
    let mut image = DriverImage::new(name, DriverVersion::new(1, 0, 0), 1);
    image.preconfigured_target = Some(format!("{target}:5432"));
    DriverRecord::new(
        DriverId(id),
        ApiName::rdbc(),
        BinaryFormat::Djar,
        pack_driver(BinaryFormat::Djar, &image),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = Network::new();
    let _master = db_with_tag(&net, "dbmaster", "master");
    let _slave = db_with_tag(&net, "dbslave", "slave");

    // A standalone Drivolution server holds both pre-generated drivers.
    let srv = launch_standalone(
        &net,
        Addr::new("drv", DRIVOLUTION_PORT),
        ServerConfig::default(),
    )?;
    srv.install_driver(&preconfigured_record(1, "DBmaster-driver", "dbmaster"))?;
    srv.install_driver(&preconfigured_record(2, "DBslave-driver", "dbslave"))?;
    srv.add_rule(
        &PermissionRule::any(DriverId(1))
            .with_lease_ms(3_600_000)
            .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit),
    )?;
    println!("drivolution server holds DBmaster-driver (#1) and DBslave-driver (#2)");

    // Clients: the URL points at a virtual host name that is ignored by
    // the pre-configured drivers.
    let url: DbUrl = "rdbc:minidb://accounts-virtual:5432/accounts".parse()?;
    let props = ConnectProps::user("admin", "admin");
    let mut clients = Vec::new();
    for i in 0..5 {
        let b = Bootloader::new(
            &net,
            Addr::new(format!("client{i}"), 1),
            BootloaderConfig::fixed(vec![Addr::new("drv", DRIVOLUTION_PORT)])
                // Self-driving: each bootloader registers a lifecycle
                // task; the swaps below happen by pumping the scheduler,
                // with no application code calling poll().
                .self_driving(Duration::from_secs(30))
                .trusting(srv.certificate())
                .with_notify_channel(),
        );
        let mut conn = b.connect(&url, &props)?;
        let role = conn.execute("SELECT role FROM whoami")?.rows()?;
        assert_eq!(role.rows[0][0], Value::str("master"));
        clients.push(b);
    }
    println!("5 clients connected; all report role = 'master' (step 1 of Figure 4)");

    // --- failover: swap the driver at the server (steps 2–3) -------------
    println!("\nmaintenance window: marking DBmaster-driver expired, serving DBslave-driver");
    srv.expire_driver(DriverId(1))?;
    srv.add_rule(
        &PermissionRule::any(DriverId(2))
            .with_lease_ms(3_600_000)
            .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit),
    )?;
    srv.notify_upgrade("accounts");

    // One scheduler pump later, every client's own upgrade-poll task has
    // drained the pushed notice and hot-swapped the driver.
    let now = net.clock().now_ms();
    net.run_until(now + 31_000);
    let moved: u64 = clients.iter().map(|b| b.stats().upgrades).sum();
    for b in &clients {
        let mut conn = b.connect(&url, &props)?;
        let role = conn.execute("SELECT role FROM whoami")?.rows()?;
        assert_eq!(role.rows[0][0], Value::str("slave"));
    }
    println!("{moved}/5 clients swapped drivers; all now report role = 'slave'");
    println!("zero client-side reconfiguration — the swap happened at the server");

    // --- failback ----------------------------------------------------------
    println!("\nmaster restored: failback by another driver swap");
    srv.expire_driver(DriverId(2))?;
    srv.add_rule(
        &PermissionRule::any(DriverId(1))
            .with_lease_ms(3_600_000)
            .valid_between(None, None)
            .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit),
    )?;
    srv.notify_upgrade("accounts");
    let now = net.clock().now_ms();
    net.run_until(now + 31_000);
    for b in &clients {
        let mut conn = b.connect(&url, &props)?;
        let role = conn.execute("SELECT role FROM whoami")?.rows()?;
        assert_eq!(role.rows[0][0], Value::str("master"));
    }
    println!("all clients back on the master");
    Ok(())
}
