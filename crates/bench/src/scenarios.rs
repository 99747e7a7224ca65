//! The report scenarios, one module per `BENCH_<name>.json`, each a
//! `fn run(Size) -> Report` that is a pure function of the code: every
//! figure is a byte count, a frame or step count, or a virtual-time
//! reading, and each sits under a gate. Wall-clock belongs to `drvbench`
//! (`benchmark/`).

use std::sync::Arc;

use driverkit::{ConnectProps, DbUrl};
use drivolution_bootloader::{Bootloader, BootloaderConfig, PollOutcome};
use drivolution_core::pack::pack_driver_padded;
use drivolution_core::{
    ApiName, BinaryFormat, DriverId, DriverImage, DriverRecord, DriverVersion, ExpirationPolicy,
    PermissionRule, RenewPolicy, DRIVOLUTION_PORT,
};
use drivolution_server::{
    attach_in_database, DrivolutionServer, MirrorHealth, RolloutOrchestrator, RolloutPhase,
    ServerConfig,
};
use fleet::FleetSim;
use minidb::wire::DbServer;
use minidb::MiniDb;
use netsim::{Addr, Network};

use crate::kit::Gates;

pub mod cdc;
pub mod chaos;
pub mod depot;
pub mod hotswap;
pub mod mirror;
pub mod paper;
pub mod rollout;
pub mod sched;
pub mod shard;

const MINUTE: u64 = 60_000;

fn v2() -> DriverVersion {
    DriverVersion::new(2, 0, 0)
}

/// Whether the mirror directory has walked `location` out of its plans
/// (quarantined it, or already evicted it).
fn mirror_walked_out(sim: &FleetSim, location: &str) -> bool {
    let entry = sim.server().mirror_directory().entry(location);
    matches!(
        entry.map(|e| e.health),
        Some(MirrorHealth::Quarantined) | None
    )
}

fn props() -> ConnectProps {
    ConnectProps::user("admin", "admin")
}

/// Polls `boot` once; the promise is that this poll upgrades it.
fn poll_upgrades(boot: &Arc<Bootloader>, gates: &mut Gates) {
    let outcome = boot.poll();
    let upgraded = matches!(outcome, PollOutcome::Upgraded { .. });
    gates.require(upgraded, format!("a poll did not upgrade: {outcome:?}"));
}

/// One database host with an in-database Drivolution server distributing
/// a padded v1.0.0 driver: the single-server rig of the depot, cdc and
/// paper scenarios.
struct Rig {
    net: Network,
    srv: Arc<DrivolutionServer>,
    url: DbUrl,
    server_addr: Addr,
    image_name: &'static str,
    padding: usize,
}

impl Rig {
    fn new(image_name: &'static str, padding: usize) -> Rig {
        Rig::with_config(image_name, padding, ServerConfig::default())
    }

    fn with_config(image_name: &'static str, padding: usize, config: ServerConfig) -> Rig {
        let net = Network::new();
        let db = Arc::new(MiniDb::with_clock("orders", net.clock().clone()));
        net.bind_arc(Addr::new("db1", 5432), Arc::new(DbServer::new(db.clone())))
            .unwrap();
        let server_addr = Addr::new("db1", DRIVOLUTION_PORT);
        let srv = attach_in_database(&net, db, server_addr.clone(), config).unwrap();
        let rig = Rig {
            net,
            srv,
            url: "rdbc:minidb://db1:5432/orders".parse().unwrap(),
            server_addr,
            image_name,
            padding,
        };
        rig.install(1, DriverVersion::new(1, 0, 0));
        rig
    }

    fn install(&self, id: i64, version: DriverVersion) {
        let image = DriverImage::new(self.image_name, version, 1);
        let bytes = pack_driver_padded(BinaryFormat::Djar, &image, self.padding);
        let record = DriverRecord::new(DriverId(id), ApiName::rdbc(), BinaryFormat::Djar, bytes)
            .with_version(version);
        self.srv.install_driver(&record).unwrap();
    }

    /// Installs `version` as driver 2 (same name and padding, so it
    /// shares all but the image-entry chunks with v1), routes everyone
    /// to it and expires every lease: the next poll upgrades.
    fn publish_upgrade(&self, version: DriverVersion) {
        self.install(2, version);
        let rule = PermissionRule::any(DriverId(2))
            .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit);
        self.srv.add_rule(&rule).unwrap();
        self.net.clock().advance_ms(4_000_000);
    }

    /// Config of a client that trusts this rig's server.
    fn client_config(&self) -> BootloaderConfig {
        BootloaderConfig::same_host().trusting(self.srv.certificate())
    }

    /// A client of this rig on host `app`.
    fn client(&self, app: &str, config: BootloaderConfig) -> Arc<Bootloader> {
        Bootloader::new(&self.net, Addr::new(app, 1), config)
    }

    /// Bytes on the wire to and from `addr` so far.
    fn wire(&self, addr: &Addr) -> u64 {
        let s = self.net.stats().for_addr(addr);
        s.bytes_in + s.bytes_out
    }
}

/// What a mid-rollout activation fault did to a fleet.
struct Rollback {
    upgraded_at_fault: usize,
    rolled_back: bool,
    failed_wave: Option<usize>,
    stranded: usize,
    recovery_virtual_ms: u64,
    revalidations: u64,
    redownloads: u64,
}

/// Lets the canary wave pass, injects an activation fault for v2 while
/// the first percentage wave is upgrading, pumps until the gate has
/// halted the rollout and every client is back on v1, then lets the
/// fleet settle for `settle_ms`.
fn fault_and_roll_back(
    sim: &FleetSim,
    ro: &RolloutOrchestrator,
    canary: usize,
    lease_ms: u64,
    step_ms: u64,
    settle_ms: u64,
    gates: &mut Gates,
) -> Rollback {
    let (v1, v2) = (DriverVersion::new(1, 0, 0), v2());
    let clients = sim.clients().len();
    let fetches = || -> u64 {
        let stats = sim.clients().iter().map(|c| c.stats());
        stats.map(|s| s.downloads + s.delta_downloads).sum()
    };
    let revalidations = || -> u64 { sim.clients().iter().map(|c| c.stats().revalidations).sum() };

    // Pump until the first percentage wave is visibly upgrading: the
    // canary passed its gate and the blast radius is now real.
    let deadline = sim.net().clock().now_ms() + 20 * (lease_ms + 5 * MINUTE);
    while sim.count_on(v2) <= canary && sim.net().clock().now_ms() < deadline {
        sim.net().run_until(sim.net().clock().now_ms() + step_ms);
    }
    let upgraded_at_fault = sim.count_on(v2);
    gates.require(
        upgraded_at_fault > canary,
        "rollout never progressed past the canary",
    );
    sim.inject_activation_fault(Some(v2));
    // From here on, every fetch beyond the in-flight upgrades is a
    // rollback that failed to use the depot.
    let (fetches_before, reval_before) = (fetches(), revalidations());
    let fault_at = sim.net().clock().now_ms();

    // Upgrades in flight when the fault lands still complete (and fail);
    // the gate halts the rollout, then every upgraded client rolls back
    // at its next renewal.
    let rolled_back = || matches!(ro.status().phase, RolloutPhase::RolledBack { .. });
    loop {
        let now = sim.net().clock().now_ms();
        if now >= deadline || (rolled_back() && sim.count_on(v1) == clients) {
            break;
        }
        sim.net().run_until(now + step_ms);
    }
    let recovery_virtual_ms = sim.net().clock().now_ms() - fault_at;
    sim.run_steady_state(step_ms, settle_ms);

    // Every rollback revalidated; v2 deltas pulled after the fault are
    // legitimate, fetches beyond those are not.
    let late_upgrades = revalidations() - reval_before;
    Rollback {
        upgraded_at_fault,
        rolled_back: rolled_back(),
        failed_wave: match ro.status().phase {
            RolloutPhase::RolledBack { failed_wave } => Some(failed_wave),
            _ => None,
        },
        stranded: clients - sim.count_on(v1),
        recovery_virtual_ms,
        revalidations: late_upgrades,
        redownloads: (fetches() - fetches_before).saturating_sub(late_upgrades),
    }
}
