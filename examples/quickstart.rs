//! Quickstart — the paper's Figure 1 architecture in one binary.
//!
//! One database hosts an in-database Drivolution server. Two applications
//! use bootloaders (one downloading over the sealed channel, one plain);
//! a third is a legacy application with a statically linked driver,
//! showing the two worlds coexist ("This allows applications that do not
//! use Drivolution to still access the database with a conventional
//! driver like Application 3 in Figure 1").
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use drivolution::core::pack::pack_driver;
use drivolution::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- infrastructure -------------------------------------------------
    let net = Network::new();
    let db = Arc::new(MiniDb::with_clock("orders", net.clock().clone()));
    {
        let mut s = db.admin_session();
        db.exec(
            &mut s,
            "CREATE TABLE items (id INTEGER PRIMARY KEY, name VARCHAR)",
        )?;
        db.exec(&mut s, "INSERT INTO items VALUES (1, 'bolt'), (2, 'nut')")?;
    }
    net.bind_arc(Addr::new("db1", 5432), Arc::new(DbServer::new(db.clone())))?;
    println!("database 'orders' up at db1:5432");

    // --- in-database Drivolution server (Figure 1, right side) ----------
    let srv = attach_in_database(
        &net,
        db,
        Addr::new("db1", DRIVOLUTION_PORT),
        ServerConfig::default(),
    )?;
    let image = DriverImage::new("minidb-rdbc", DriverVersion::new(1, 0, 0), 1);
    srv.install_driver(&DriverRecord::new(
        DriverId(1),
        ApiName::rdbc(),
        BinaryFormat::Djar,
        pack_driver(BinaryFormat::Djar, &image),
    ))?;
    println!("drivolution server up at db1:{DRIVOLUTION_PORT}; driver#1 installed with one INSERT");

    let url: DbUrl = "rdbc:minidb://db1:5432/orders".parse()?;
    let props = ConnectProps::user("admin", "admin");

    // --- Application 1: bootloader, sealed transfer ----------------------
    let app1 = Bootloader::new(
        &net,
        Addr::new("app1", 1),
        BootloaderConfig::same_host().trusting(srv.certificate()),
    );
    let mut c1 = app1.connect(&url, &props)?;
    let rows = c1.execute("SELECT count(*) FROM items")?.rows()?;
    println!(
        "app1 (bootloader, sealed channel): driver v{} downloaded, count(*) = {}",
        app1.active_version().expect("driver loaded"),
        rows.rows[0][0]
    );

    // --- Application 2: bootloader on another host -----------------------
    let app2 = Bootloader::new(
        &net,
        Addr::new("app2", 1),
        BootloaderConfig::same_host().trusting(srv.certificate()),
    );
    let mut c2 = app2.connect(&url, &props)?;
    c2.execute("INSERT INTO items VALUES (3, 'washer')")?;
    println!("app2 (bootloader): inserted one row through the downloaded driver");

    // --- Application 3: legacy static driver, no Drivolution -------------
    let legacy = legacy_driver(&net, &Addr::new("app3", 1), 1)?;
    let mut c3 = legacy.connect(&url, &props)?;
    let rows = c3.execute("SELECT count(*) FROM items")?.rows()?;
    println!(
        "app3 (legacy driver {}): count(*) = {} — conventional access still works",
        legacy.name(),
        rows.rows[0][0]
    );

    // --- protocol accounting ---------------------------------------------
    let st = srv.stats();
    println!(
        "server stats: {} requests, {} offers, {} files served ({} bytes of driver code)",
        st.requests, st.offers, st.files, st.file_bytes
    );
    println!(
        "lease table rows in information_schema.leases (one per binding): {}",
        srv.store().lease_count()?
    );
    Ok(())
}
