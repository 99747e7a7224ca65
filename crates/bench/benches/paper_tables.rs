//! Regenerates every table and figure of the paper's evaluation as
//! printed series (see EXPERIMENTS.md for the experiment index and the
//! recorded outcomes).
//!
//! This target uses `harness = false`: it is a report generator, not a
//! timing benchmark (`drvbench` in `benchmark/` is the one place
//! wall-clock is measured).
//!
//! Run with: `cargo bench -p drivolution-bench --bench paper_tables`

use std::sync::Arc;

use driverkit::{ConnectProps, DbUrl};
use drivolution_bootloader::{Bootloader, BootloaderConfig};
use drivolution_core::pack::{pack_driver, pack_driver_padded};
use drivolution_core::{
    ApiName, BinaryFormat, DriverId, DriverImage, DriverRecord, DriverVersion, ExpirationPolicy,
    PermissionRule, RenewPolicy, TransferMethod, DRIVOLUTION_PORT,
};
use drivolution_server::{attach_in_database, launch_standalone, ServerConfig};
use fleet::sim::FleetSim;
use fleet::{fleet_install_report, fleet_update_report, render_table5, FleetSpec};
use minidb::wire::DbServer;
use minidb::MiniDb;
use netsim::{Addr, Network};

const MINUTE: u64 = 60_000;
const HOUR: u64 = 60 * MINUTE;

fn banner(title: &str) {
    println!("\n==============================================================");
    println!("{title}");
    println!("==============================================================");
}

/// Table 5 — ops-step comparison for heterogeneous administration.
fn table_5() {
    banner("Table 5: driver tasks for 2 DBAs — steps, state of the art vs Drivolution");
    print!("{}", render_table5(2));
    println!("\nScaling the same tasks in the number of DBAs:");
    println!(
        "{:>6} {:>28} {:>24}",
        "DBAs", "access-new-db (sota/drv)", "driver-upgrade (sota/drv)"
    );
    for n in [1usize, 2, 5, 10, 20, 50] {
        let rows = fleet::table5(n);
        println!(
            "{:>6} {:>14}/{:<13} {:>12}/{:<11}",
            n, rows[0].sota_steps, rows[0].drv_steps, rows[1].sota_steps, rows[1].drv_steps
        );
    }
}

/// §2 vs §3.2 — lifecycle step counts and fleet-scale cost.
fn lifecycle_costs() {
    banner("Sections 2 & 3.2: lifecycle costs at fleet scale");
    println!(
        "per-app install: {} steps (sota) vs {} steps (drivolution, once per machine)",
        fleet::ops::sota_initial_install().step_count(),
        fleet::ops::drv_initial_install().step_count(),
    );
    println!(
        "per-app update : {} executed steps (paper counts {}) vs {} step at the server",
        fleet::ops::sota_driver_update().step_count(),
        fleet::ops::PAPER_SOTA_UPDATE_STEPS,
        fleet::ops::drv_driver_update().step_count(),
    );
    println!(
        "\n{:>8} {:>16} {:>16} {:>16} {:>14}",
        "apps", "sota steps", "drv steps", "sota downtime", "drv downtime"
    );
    for apps in [10usize, 100, 500] {
        let spec = FleetSpec::hosting_center(apps, &["php", "ruby", "perl"], 100.min(apps), 2);
        let r = fleet_update_report(&spec);
        println!(
            "{:>8} {:>16} {:>16} {:>13}m {:>13}m",
            apps,
            r.sota_steps,
            r.drv_steps,
            r.sota_downtime_ms / MINUTE,
            r.drv_downtime_ms / MINUTE
        );
    }
    let spec = FleetSpec::hosting_center(500, &["php", "ruby", "perl"], 100, 2);
    let i = fleet_install_report(&spec);
    println!(
        "\ninitial deployment at 500 apps: {} steps (sota) vs {} (drivolution)",
        i.sota_steps, i.drv_steps
    );
}

/// §3.2 tradeoff — lease time vs propagation time vs server traffic,
/// with the dedicated-channel (push) ablation.
fn lease_tradeoff() {
    banner("Section 3.2 tradeoff: lease time vs upgrade propagation vs server traffic");
    println!("fleet: 20 clients, one in-database drivolution server, virtual time");
    println!(
        "{:>10} {:>22} {:>20} {:>18}",
        "lease", "time-to-full-upgrade", "server msgs (24h)", "steady msgs/h"
    );
    for &lease in &[MINUTE, 10 * MINUTE, HOUR, 6 * HOUR, 24 * HOUR] {
        // Steady-state traffic over a simulated day.
        let sim = FleetSim::build(20, lease, false);
        sim.bootstrap_all();
        let steady = sim.run_steady_state(MINUTE, 24 * HOUR);
        // Fresh fleet for the propagation measurement.
        let sim = FleetSim::build(20, lease, false);
        sim.bootstrap_all();
        sim.publish_upgrade(false);
        let prop = sim.run_until_upgraded(MINUTE, 48 * HOUR);
        println!(
            "{:>8}m {:>20}m {:>20} {:>18.1}",
            lease / MINUTE,
            prop.time_to_full_upgrade_ms / MINUTE,
            steady.server_requests,
            steady.server_requests as f64 / 24.0,
        );
    }
    // Push ablation: propagation independent of lease length.
    let sim = FleetSim::build(20, 24 * HOUR, true);
    sim.bootstrap_all();
    sim.publish_upgrade(true);
    let prop = sim.run_until_upgraded(MINUTE, 48 * HOUR);
    println!(
        "{:>8} {:>20}m   (dedicated channel: lease = 24h, push notice)",
        "push",
        prop.time_to_full_upgrade_ms / MINUTE
    );
}

/// Figure 4 — master/slave failover: reconfiguration latency vs fleet
/// size, all from a single administrative action.
fn figure_4_failover() {
    banner("Figure 4: master/slave failover by driver swap — admin steps vs fleet size");
    println!(
        "{:>8} {:>14} {:>22} {:>16}",
        "clients", "admin steps", "clients reconfigured", "failed clients"
    );
    for &n in &[1usize, 5, 20, 50] {
        let net = Network::new();
        for host in ["dbmaster", "dbslave"] {
            let db = Arc::new(MiniDb::with_clock("accounts", net.clock().clone()));
            net.bind_arc(Addr::new(host, 5432), Arc::new(DbServer::new(db)))
                .unwrap();
        }
        let srv = launch_standalone(
            &net,
            Addr::new("drv", DRIVOLUTION_PORT),
            ServerConfig::default(),
        )
        .unwrap();
        for (id, name, target) in [
            (1, "DBmaster-driver", "dbmaster"),
            (2, "DBslave-driver", "dbslave"),
        ] {
            let mut image = DriverImage::new(name, DriverVersion::new(1, 0, 0), 1);
            image.preconfigured_target = Some(format!("{target}:5432"));
            srv.install_driver(&DriverRecord::new(
                DriverId(id),
                ApiName::rdbc(),
                BinaryFormat::Djar,
                pack_driver(BinaryFormat::Djar, &image),
            ))
            .unwrap();
        }
        srv.add_rule(
            &PermissionRule::any(DriverId(1))
                .with_lease_ms(HOUR as i64)
                .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit),
        )
        .unwrap();
        let url: DbUrl = "rdbc:minidb://virtual:5432/accounts".parse().unwrap();
        let props = ConnectProps::user("admin", "admin");
        let clients: Vec<_> = (0..n)
            .map(|i| {
                let b = Bootloader::new(
                    &net,
                    Addr::new(format!("c{i}"), 1),
                    BootloaderConfig::fixed(vec![Addr::new("drv", DRIVOLUTION_PORT)])
                        .self_driving(std::time::Duration::from_secs(60))
                        .trusting(srv.certificate())
                        .with_notify_channel(),
                );
                b.connect(&url, &props).unwrap();
                b
            })
            .collect();
        // Failover: two admin actions at the server, zero per client.
        srv.expire_driver(DriverId(1)).unwrap();
        srv.add_rule(
            &PermissionRule::any(DriverId(2))
                .with_lease_ms(HOUR as i64)
                .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit),
        )
        .unwrap();
        srv.notify_upgrade("accounts");
        // The swap propagates on the clients' own scheduler-registered
        // poll tasks; one pump interval later everyone has moved.
        let now = net.clock().now_ms();
        net.run_until(now + 61_000);
        let mut moved = 0;
        let mut failed = 0;
        for b in &clients {
            if b.stats().upgrades >= 1 {
                moved += 1;
            } else {
                failed += 1;
            }
            if b.connect(&url, &props).is_err() {
                failed += 1;
            }
        }
        println!("{:>8} {:>14} {:>22} {:>16}", n, 3, moved, failed);
    }
    println!(
        "(admin steps: expire old driver + add rule + push notice — independent of fleet size)"
    );
}

/// Table 3-adjacent series: driver file sizes vs bytes on the wire per
/// transfer method.
fn transfer_overhead() {
    banner("Table 3 companion: bootstrap transfer — driver size vs wire bytes by method");
    println!(
        "{:>12} {:>10} {:>14} {:>14}",
        "driver size", "method", "wire bytes", "overhead"
    );
    for &size in &[64 * 1024usize, 1024 * 1024] {
        for method in [
            TransferMethod::Plain,
            TransferMethod::Checksum,
            TransferMethod::Sealed,
        ] {
            let net = Network::new();
            let db = Arc::new(MiniDb::with_clock("orders", net.clock().clone()));
            net.bind_arc(Addr::new("db1", 5432), Arc::new(DbServer::new(db.clone())))
                .unwrap();
            let srv = attach_in_database(
                &net,
                db,
                Addr::new("db1", DRIVOLUTION_PORT),
                ServerConfig {
                    default_transfer: method,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            let image = DriverImage::new("d", DriverVersion::new(1, 0, 0), 1);
            let packed = pack_driver_padded(BinaryFormat::Djar, &image, size);
            let raw_len = packed.len();
            srv.install_driver(&DriverRecord::new(
                DriverId(1),
                ApiName::rdbc(),
                BinaryFormat::Djar,
                packed,
            ))
            .unwrap();
            let b = Bootloader::new(
                &net,
                Addr::new("app", 1),
                BootloaderConfig::same_host().trusting(srv.certificate()),
            );
            let url: DbUrl = "rdbc:minidb://db1:5432/orders".parse().unwrap();
            b.connect(&url, &ConnectProps::user("admin", "admin"))
                .unwrap();
            let drv_traffic = net.stats().for_addr(&Addr::new("db1", DRIVOLUTION_PORT));
            let wire = drv_traffic.bytes_in + drv_traffic.bytes_out;
            println!(
                "{:>10}KB {:>10} {:>14} {:>13.2}%",
                size / 1024,
                method,
                wire,
                100.0 * (wire as f64 - raw_len as f64) / raw_len as f64
            );
        }
    }
}

/// §5.4.2 — license server utilization under churn.
fn license_utilization() {
    banner("Section 5.4.2: license server — seats vs denied requests under churn");
    let net = Network::new();
    let db = Arc::new(MiniDb::with_clock("db2ish", net.clock().clone()));
    net.bind_arc(Addr::new("db1", 5432), Arc::new(DbServer::new(db.clone())))
        .unwrap();
    let srv = attach_in_database(
        &net,
        db,
        Addr::new("db1", DRIVOLUTION_PORT),
        ServerConfig::default(),
    )
    .unwrap();
    let image = DriverImage::new("licensed", DriverVersion::new(1, 0, 0), 1);
    srv.install_driver(&DriverRecord::new(
        DriverId(1),
        ApiName::rdbc(),
        BinaryFormat::Djar,
        pack_driver(BinaryFormat::Djar, &image),
    ))
    .unwrap();
    srv.add_rule(&PermissionRule::any(DriverId(1)).with_lease_ms(10 * MINUTE as i64))
        .unwrap();
    println!(
        "{:>8} {:>10} {:>10} {:>10}",
        "seats", "clients", "granted", "denied"
    );
    for &(seats, clients) in &[(2usize, 5usize), (5, 10), (10, 10)] {
        srv.licenses().set_limit(DriverId(1), seats);
        let url: DbUrl = "rdbc:minidb://db1:5432/db2ish".parse().unwrap();
        let mut granted = 0;
        let mut denied = 0;
        let mut boots = Vec::new();
        for i in 0..clients {
            let b = Bootloader::new(
                &net,
                Addr::new(format!("seat{seats}-c{i}"), 1),
                BootloaderConfig::same_host().trusting(srv.certificate()),
            );
            match b.connect(&url, &ConnectProps::user("admin", "admin")) {
                Ok(_) => granted += 1,
                Err(_) => denied += 1,
            }
            boots.push(b);
        }
        println!(
            "{:>8} {:>10} {:>10} {:>10}",
            seats, clients, granted, denied
        );
        for b in &boots {
            let _ = b.release_driver();
        }
    }
}

fn main() {
    // Accept and ignore the arguments the cargo-bench harness passes.
    let _args: Vec<String> = std::env::args().collect();
    println!("Drivolution paper-evaluation reproduction — all tables & figure series");
    table_5();
    lifecycle_costs();
    lease_tradeoff();
    figure_4_failover();
    transfer_overhead();
    license_utilization();
    println!("\n(done — see EXPERIMENTS.md for the paper-vs-measured record)");
}
