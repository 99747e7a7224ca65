//! # drivolution — reproduction of "Drivolution: Rethinking the Database
//! Driver Lifecycle" (Cecchet & Candea, Middleware 2009)
//!
//! Drivolution stores database drivers *in the database*, distributes
//! them to clients on demand through a DHCP-like lease protocol, and
//! hot-swaps driver versions transparently to applications. This
//! workspace reproduces the whole system in Rust, from the SQL engine up:
//!
//! | Layer | Crate |
//! |---|---|
//! | network + virtual clock | [`netsim`] |
//! | SQL database substrate | [`minidb`] |
//! | Drivolution core (protocol, leases, policies, chunking) | [`core`] |
//! | content-addressed distribution (cache, deltas, mirrors) | [`depot`] |
//! | RDBC API + driver VM | [`driverkit`] |
//! | client bootloader | [`bootloader`] |
//! | driver distribution server | [`server`] |
//! | Sequoia-like replication middleware | [`cluster`] |
//! | operational fleet simulation | [`fleet`] |
//!
//! See `DESIGN.md` for the substitutions (FNV for SHA-256, simulated
//! signatures and sealed transfer, the driver VM) and the wire format,
//! and `EXPERIMENTS.md` for the experiment index and paper-vs-measured
//! results. Runnable scenarios live in `examples/`.
//!
//! # Examples
//!
//! End-to-end quickstart (Figure 1's in-database configuration):
//!
//! ```
//! use std::sync::Arc;
//! use drivolution::prelude::*;
//!
//! // A database on the simulated network…
//! let net = Network::new();
//! let db = Arc::new(MiniDb::with_clock("orders", net.clock().clone()));
//! net.bind_arc(Addr::new("db1", 5432), Arc::new(DbServer::new(db.clone())))?;
//!
//! // …with an in-database Drivolution server holding one driver…
//! let srv = attach_in_database(&net, db, Addr::new("db1", DRIVOLUTION_PORT),
//!                              ServerConfig::default())?;
//! let image = DriverImage::new("minidb-rdbc", DriverVersion::new(1, 0, 0), 1);
//! srv.install_driver(&DriverRecord::new(
//!     DriverId(1), ApiName::rdbc(), BinaryFormat::Djar,
//!     drivolution::core::pack::pack_driver(BinaryFormat::Djar, &image),
//! ))?;
//!
//! // …and a client that has only a bootloader installed.
//! let boot = Bootloader::new(&net, Addr::new("app", 1),
//!     BootloaderConfig::same_host().trusting(srv.certificate()));
//! let mut conn = boot.connect(
//!     &"rdbc:minidb://db1:5432/orders".parse()?,
//!     &ConnectProps::user("admin", "admin"),
//! )?;
//! conn.execute("SELECT 1")?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use cluster;
pub use driverkit;
pub use drivolution_bootloader as bootloader;
pub use drivolution_core as core;
pub use drivolution_depot as depot;
pub use drivolution_server as server;
pub use fleet;
pub use minidb;
pub use netsim;

/// One-stop imports for examples and tests.
pub mod prelude {
    pub use driverkit::{
        legacy_driver, ConnectProps, Connection, DbUrl, DkError, Driver, DriverVm,
    };
    pub use drivolution_bootloader::{
        Bootloader, BootloaderConfig, LifecyclePolicy, PollOutcome, ServerLocator, SwapConfig,
        SwapStats,
    };
    pub use drivolution_core::{
        ApiName, ApiVersion, BinaryFormat, DriverId, DriverImage, DriverRecord, DriverVersion,
        DrvError, ExpirationPolicy, PermissionRule, RenewPolicy, TransferMethod, DRIVOLUTION_PORT,
    };
    pub use drivolution_depot::{DriverDepot, MirrorDepot};
    pub use drivolution_server::{
        attach_in_database, launch_external, launch_standalone, DrivolutionServer, RolloutConfig,
        RolloutOrchestrator, RolloutPhase, RolloutPlan, ServerConfig,
    };
    pub use minidb::{wire::DbServer, MiniDb, Value};
    pub use netsim::{
        Addr, ChaosAction, ChaosSchedule, Clock, FailureKind, Network, Scheduler, TaskControl,
        TaskHandle,
    };
}
