//! Depot distribution end to end: a fleet machine cold-fetches a driver,
//! a second app on the machine revalidates it for free, and a vN→vN+1
//! upgrade travels as a chunked delta served by a mirror replica —
//! with the wire-byte ledger printed at each step.
//!
//! Run with: `cargo run --example depot_upgrade`

use std::sync::Arc;

use drivolution::core::pack::pack_driver_padded;
use drivolution::core::{
    ApiName, BinaryFormat, DriverId, DriverImage, DriverRecord, DriverVersion, ExpirationPolicy,
    PermissionRule, RenewPolicy, DRIVOLUTION_PORT,
};
use drivolution::prelude::*;

const PADDING: usize = 256 * 1024;

fn record(id: i64, version: DriverVersion) -> DriverRecord {
    let image = DriverImage::new("minidb-rdbc", version, 1);
    DriverRecord::new(
        DriverId(id),
        ApiName::rdbc(),
        BinaryFormat::Djar,
        pack_driver_padded(BinaryFormat::Djar, &image, PADDING),
    )
    .with_version(version)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = Network::new();
    let db = Arc::new(MiniDb::with_clock("orders", net.clock().clone()));
    net.bind_arc(Addr::new("db1", 5432), Arc::new(DbServer::new(db.clone())))?;
    let server_addr = Addr::new("db1", DRIVOLUTION_PORT);
    let srv = attach_in_database(&net, db, server_addr.clone(), ServerConfig::default())?;
    srv.install_driver(&record(1, DriverVersion::new(1, 0, 0)))?;
    println!("driver v1 installed ({} KiB packed)", PADDING / 1024);

    // A read-only depot mirror takes bulk chunk traffic off the primary.
    // Launching self-announces it into the server's mirror directory and
    // registers its own heartbeat task on the network scheduler — pumping
    // `run_due`/`run_until` keeps it out of quarantine; nobody calls
    // heartbeat() by hand.
    let mirror = MirrorDepot::launch(&net, Addr::new("mirror1", 1071), server_addr.clone())?;
    net.scheduler().run_due();

    // One machine-wide depot shared by every app on "app-host". The apps
    // drive their own maintenance in this walkthrough (manual lifecycle)
    // so each step's wire ledger stays attributable.
    let depot = DriverDepot::in_memory();
    let config = BootloaderConfig::same_host()
        .with_lifecycle(LifecyclePolicy::manual())
        .trusting(srv.certificate())
        .trusting(mirror.certificate())
        .with_depot(depot.clone());

    let wire = |mark: u64| {
        let s = net.stats().for_addr(&server_addr);
        let m = net.stats().for_addr(&Addr::new("mirror1", 1071));
        s.bytes_in + s.bytes_out + m.bytes_in + m.bytes_out - mark
    };
    let url: DbUrl = "rdbc:minidb://db1:5432/orders".parse()?;
    let props = ConnectProps::user("admin", "admin");

    // 1. Cold fetch: the full image travels.
    let mark = wire(0);
    let boot1 = Bootloader::new(&net, Addr::new("app-host", 1), config.clone());
    boot1.connect(&url, &props)?.execute("SELECT 1")?;
    println!("app1 cold fetch:        {:>8} bytes on wire", wire(mark));

    // 2. Second app, same depot: zero-transfer revalidation.
    let mark = wire(0);
    let boot2 = Bootloader::new(&net, Addr::new("app-host", 2), config.clone());
    boot2.connect(&url, &props)?.execute("SELECT 1")?;
    println!(
        "app2 warm revalidation: {:>8} bytes on wire ({} revalidations)",
        wire(mark),
        boot2.stats().revalidations
    );

    // 3. The DBA installs v2; the lease expires; the upgrade is a delta.
    srv.install_driver(&record(2, DriverVersion::new(2, 0, 0)))?;
    srv.add_rule(
        &PermissionRule::any(DriverId(2))
            .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit),
    )?;
    net.clock().advance_ms(4_000_000);
    net.scheduler().run_due(); // the mirror's heartbeat task catches up: still alive
    let mark = wire(0);
    let outcome = boot1.poll();
    println!(
        "app1 delta upgrade:     {:>8} bytes on wire ({outcome:?})",
        wire(mark)
    );
    println!(
        "  chunks from mirror: {}, saved {} bytes vs full re-ship",
        mirror.stats().chunks_served,
        boot1.stats().bytes_saved
    );
    println!(
        "  server ledger: {} revalidations, {} delta offers",
        srv.stats().revalidations,
        srv.stats().delta_offers
    );
    boot1.connect(&url, &props)?.execute("SELECT 1")?;
    println!(
        "app1 runs v{} after hot swap",
        boot1.active_version().unwrap()
    );
    Ok(())
}
