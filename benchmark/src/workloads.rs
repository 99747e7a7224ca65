//! The four workloads: how each world is built from the seed (setup part),
//! what its timed part executes, and what must hold afterwards.
//!
//! Every world is rebuilt from scratch each round, so rounds are identical
//! and their deterministic counters must be too. The load is closed-loop and
//! single-threaded: a bootstrap starts when the previous one returned, and
//! scheduler-driven worlds are pumped step by step through
//! `Network::run_until`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use driverkit::{ConnectProps, DbUrl};
use drivolution_bootloader::{
    BootStats, Bootloader, BootloaderConfig, LifecyclePolicy, SwapConfig,
};
use drivolution_core::pack::{unpack_driver, Archive, IMAGE_ENTRY};
use drivolution_core::{
    entropy_blob, ApiName, BinaryFormat, DriverId, DriverImage, DriverRecord, DriverVersion,
    DRIVOLUTION_PORT,
};
use drivolution_depot::DriverDepot;
use drivolution_server::{
    attach_in_database, DrivolutionServer, RolloutConfig, RolloutOrchestrator, RolloutPhase,
    RolloutPlan, ServerConfig,
};
use fleet::{FleetSim, SteadyLoad, DEFAULT_POLL_EVERY};
use minidb::wire::DbServer;
use minidb::MiniDb;
use netsim::{Addr, Network, Service};

use crate::trace::{Tap, Tracer};

pub const MINUTE: u64 = 60_000;

pub const NAMES: [&str; 4] = ["cold_fetch", "renew_storm", "delta_rollout", "hotswap_oltp"];

/// Timed rounds of a 30-second run, per workload in the order of [`NAMES`]:
/// sized on this box so that warm-up and rounds together take about 28 s.
const ROUNDS_PER_30S: [u64; 4] = [96, 14, 16, 48];

/// Timed rounds of a run of `seconds`: a function of the arguments alone,
/// so two commits measured with the same arguments draw equal samples.
pub fn rounds_for(workload: &str, seconds: u64) -> usize {
    let per_30s = NAMES
        .iter()
        .position(|n| *n == workload)
        .map_or(0, |i| ROUNDS_PER_30S[i]);
    (per_30s * seconds / 30).max(3) as usize
}

/// Fleet sizes: the full benchmark, or the `--smoke` shrink.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub cold_clients: usize,
    pub storm_clients: usize,
    pub rollout_clients: usize,
    pub hotswap_clients: usize,
    pub canary: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        cold_clients: 64,
        storm_clients: 10_000,
        // A 10 000-client rollout round costs 6 s here: four rounds in a
        // 30 s run, too few to find each step undisturbed once.
        rollout_clients: 4_000,
        hotswap_clients: 50,
        canary: 10,
    };
    pub const SMOKE: Scale = Scale {
        cold_clients: 8,
        storm_clients: 100,
        rollout_clients: 100,
        hotswap_clients: 12,
        canary: 2,
    };
}

/// One timed step of a round part: a slice of world building, one
/// `bootstrap`, or one `run_until` pump. Rounds are identical, so step `k`
/// of every round does the same work — which is what lets the wall
/// estimator compare a step with itself across rounds.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    pub name: &'static str,
    pub ns: u64,
    pub ops: u64,
    pub tasks: u64,
}

/// Times the steps of a round part and, on a traced round, records a span
/// around each. Whatever a scenario does between steps (invariant checks,
/// counter reads) is outside every step and so outside the wall metrics.
pub struct Probe {
    tracer: Option<Arc<Tracer>>,
    pub steps: Vec<Step>,
}

impl Probe {
    pub fn new(tracer: Option<Arc<Tracer>>) -> Self {
        Probe {
            tracer,
            steps: Vec::new(),
        }
    }

    /// Runs one step; `f` returns (ops completed, scheduler tasks fired).
    pub fn step(&mut self, name: &'static str, f: impl FnOnce() -> (u64, u64)) {
        let span = self.tracer.as_ref().map(|t| t.enter(name));
        let t0 = Instant::now();
        let (ops, tasks) = f();
        let ns = t0.elapsed().as_nanos() as u64;
        if let (Some(t), Some(id)) = (&self.tracer, span) {
            t.exit(id);
        }
        self.steps.push(Step {
            name,
            ns,
            ops,
            tasks,
        });
    }

    /// A step that completes no op and fires no task (setup work).
    pub fn work<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let mut out = None;
        self.step(name, || {
            out = Some(f());
            (0, 0)
        });
        out.expect("step ran its closure")
    }
}

/// What a finished round reports, all read after the clock stopped.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    pub ops: u64,
    pub failed: u64,
    /// Virtual ms from the start of the timed part to convergence.
    pub converge_virtual_ms: u64,
    pub primary_requests: u64,
    pub primary_bytes: u64,
    /// Requests and bytes over every link of the network.
    pub wire_frames: u64,
    pub wire_bytes: u64,
    /// Requests that reached the database address.
    pub db_requests: u64,
    /// Driver bytes the ops delivered to clients (the base of
    /// `mem.copy_factor` and of the page-fault guard).
    pub payload_bytes: u64,
    /// Hosts placed on the network (picks the netsim unit cost).
    pub hosts: u64,
    /// Named deterministic counters; every round's must equal round 0's.
    pub counters: Vec<(&'static str, u64)>,
    /// First violated invariant, if any.
    pub violation: Option<String>,
}

impl Verdict {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }
}

pub trait Scenario {
    /// The timed part.
    fn run(&mut self, probe: &mut Probe);
    /// Counters and invariants, read after the timed part.
    fn verdict(&self) -> Verdict;
    /// The world's network, for [`teardown`].
    fn net(&self) -> &Network;
}

/// Drops a world so that its memory really returns to the allocator.
/// `attach_in_database` hands the server a `Network` clone while the
/// network holds the server as a bound service — a reference cycle that
/// would keep every round's world (driver rows, content index) alive and
/// grow the heap by that much per round. Unbinding every address breaks
/// it from outside.
pub fn teardown(world: Box<dyn Scenario>) {
    let net = world.net().clone();
    for addr in net.bound_addrs() {
        net.unbind(&addr);
    }
}

/// Builds the world of `workload` from `seed` — the setup part of a round,
/// timed step by step through `probe`. A tracer installs the service taps.
pub fn setup(
    workload: &str,
    seed: u64,
    scale: Scale,
    tracer: Option<Arc<Tracer>>,
    probe: &mut Probe,
) -> Option<Box<dyn Scenario>> {
    Some(match workload {
        "cold_fetch" => Box::new(ColdFetch::setup(seed, scale, tracer, probe)),
        "renew_storm" => Box::new(RenewStorm::setup(seed, scale, tracer, probe)),
        "delta_rollout" => Box::new(DeltaRollout::setup(seed, scale, tracer, probe)),
        "hotswap_oltp" => Box::new(HotswapOltp::setup(seed, scale, tracer, probe)),
        _ => return None,
    })
}

/// Span and step names of the setup part.
pub const SETUP_BUILD: &str = "setup.build";
pub const SETUP_BOOTSTRAP: &str = "setup.bootstrap";
/// Step names of the timed part.
pub const STEP_BOOTSTRAP: &str = "bootstrap";
pub const STEP_PUMP: &str = "run_until";
pub const STEP_PUBLISH: &str = "publish";

// --- shared pieces ---------------------------------------------------------

fn v1() -> DriverVersion {
    DriverVersion::new(1, 0, 0)
}

fn v2() -> DriverVersion {
    DriverVersion::new(2, 0, 0)
}

fn props() -> ConnectProps {
    ConnectProps::user("admin", "admin")
}

/// Seeded Fisher–Yates order of `0..n` (xorshift64).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    order
}

/// Places the database in zone `za` and the clients alternately in `za` and
/// `zb`, every link 5 ms one way, so each round trip costs virtual time.
fn place_two_zones(net: &Network, clients: &[Arc<Bootloader>]) {
    net.with_topology(|t| {
        t.set_default_latency(5, 5);
        t.place("db1", "za");
        for (i, c) in clients.iter().enumerate() {
            t.place(c.local_addr().host(), if i % 2 == 0 { "za" } else { "zb" });
        }
    });
}

fn tap_primary(net: &Network, addr: &Addr, server: &Arc<DrivolutionServer>, tracer: &Arc<Tracer>) {
    let inner: Arc<dyn Service> = server.clone();
    Tap::rebind(net, addr, Tap::server(inner, tracer.clone()));
}

/// Digest of the image packed in the driver row `id` — what every client
/// must end up running — and the size of the package that carries it.
fn published(server: &DrivolutionServer, id: DriverId) -> (u64, u64) {
    let rec = server
        .store()
        .record(id)
        .expect("published driver row exists");
    let len = rec.binary.len() as u64;
    let image = unpack_driver(rec.format, rec.binary).expect("published driver unpacks");
    (image.digest(), len)
}

/// Fleet-wide sums of the `BootStats` fields the verdicts read.
fn sum_boot_stats(clients: &[Arc<Bootloader>]) -> BootStats {
    let mut t = BootStats::default();
    for c in clients {
        let s = c.stats();
        t.downloads += s.downloads;
        t.renewals += s.renewals;
        t.upgrades += s.upgrades;
        t.failed_renewals += s.failed_renewals;
        t.revalidations += s.revalidations;
        t.delta_downloads += s.delta_downloads;
        t.shared_image_reuses += s.shared_image_reuses;
        t.polls += s.polls;
    }
    t
}

/// Network-side counters at one instant; a round reports end − start.
#[derive(Clone, Copy, Default)]
struct NetMark {
    virtual_ms: u64,
    primary_requests: u64,
    primary_bytes: u64,
    wire_frames: u64,
    wire_bytes: u64,
    db_requests: u64,
}

fn net_mark(net: &Network, primary: &Addr, db: &Addr) -> NetMark {
    let p = net.stats().for_addr(primary);
    let t = net.stats().totals();
    NetMark {
        virtual_ms: net.clock().now_ms(),
        primary_requests: p.requests,
        primary_bytes: p.bytes_in + p.bytes_out,
        wire_frames: t.requests,
        wire_bytes: t.bytes_in + t.bytes_out,
        db_requests: net.stats().for_addr(db).requests,
    }
}

/// Fills the network-side fields of a verdict and the counters every
/// workload shares.
fn base_verdict(
    start: NetMark,
    end: NetMark,
    converged_at_ms: u64,
    clients: &[Arc<Bootloader>],
    boot0: BootStats,
    target: u64,
) -> (Verdict, BootStats, u64) {
    let boot = sum_boot_stats(clients);
    let off_target = clients
        .iter()
        .filter(|c| c.active_image_digest() != Some(target))
        .count() as u64;
    let mut v = Verdict {
        converge_virtual_ms: converged_at_ms - start.virtual_ms,
        primary_requests: end.primary_requests - start.primary_requests,
        primary_bytes: end.primary_bytes - start.primary_bytes,
        wire_frames: end.wire_frames - start.wire_frames,
        wire_bytes: end.wire_bytes - start.wire_bytes,
        db_requests: end.db_requests - start.db_requests,
        hosts: clients.len() as u64 + 1,
        ..Verdict::default()
    };
    v.counters = vec![
        ("virtual_ms", end.virtual_ms - start.virtual_ms),
        ("converge_virtual_ms", v.converge_virtual_ms),
        ("primary_requests", v.primary_requests),
        ("primary_bytes", v.primary_bytes),
        ("wire_frames", v.wire_frames),
        ("wire_bytes", v.wire_bytes),
        ("db_requests", v.db_requests),
        ("downloads", boot.downloads - boot0.downloads),
        (
            "delta_downloads",
            boot.delta_downloads - boot0.delta_downloads,
        ),
        ("revalidations", boot.revalidations - boot0.revalidations),
        (
            "shared_image_reuses",
            boot.shared_image_reuses - boot0.shared_image_reuses,
        ),
        ("polls", boot.polls - boot0.polls),
        ("client_renewals", boot.renewals - boot0.renewals),
        (
            "failed_renewals",
            boot.failed_renewals - boot0.failed_renewals,
        ),
        ("off_target", off_target),
    ];
    if off_target > 0 {
        v.violation = Some(format!(
            "{off_target} of {} clients are not on the published image digest {target:016x}",
            clients.len()
        ));
    }
    (v, boot, off_target)
}

fn first(v: &mut Verdict, failed: bool, why: impl FnOnce() -> String) {
    if failed && v.violation.is_none() {
        v.violation = Some(why());
    }
}

// --- cold_fetch --------------------------------------------------------------

const COLD_DRIVER_BYTES: usize = 1 << 20;

/// One in-database server holding a 1 MiB driver whose code bytes come from
/// the seed; fresh clients with empty in-memory depots bootstrap one after
/// the other, in seeded order. An op is one `Bootloader::bootstrap`.
struct ColdFetch {
    net: Network,
    primary: Addr,
    db: Addr,
    url: DbUrl,
    clients: Vec<Arc<Bootloader>>,
    order: Vec<usize>,
    target: u64,
    driver_len: u64,
    start: NetMark,
    end: NetMark,
    errors: u64,
    first_error: Option<String>,
}

/// A v1 driver row whose `code.bin` entry is `len` bytes of seeded entropy.
pub fn seeded_record(
    id: i64,
    version: DriverVersion,
    len: usize,
    seed: u64,
) -> (DriverRecord, u64) {
    let image = DriverImage::new("drvbench", version, 1);
    let mut a = Archive::new(BinaryFormat::Djar);
    a.add_entry(IMAGE_ENTRY, image.encode());
    a.add_entry("code.bin", Bytes::from(entropy_blob(len, seed)));
    let rec = DriverRecord::new(
        DriverId(id),
        ApiName::rdbc(),
        BinaryFormat::Djar,
        a.encode(),
    )
    .with_version(version);
    (rec, image.digest())
}

/// A hand-built single-server world (the shape of `benches/depot.rs`'s
/// rig): database, in-database Drivolution server with default config
/// (sealed transfers), one installed driver.
pub struct Rig {
    pub net: Network,
    pub db_server: Arc<DbServer>,
    pub server: Arc<DrivolutionServer>,
    pub primary: Addr,
    pub db_addr: Addr,
    pub url: DbUrl,
}

impl Rig {
    pub fn build(seed: u64, record: &DriverRecord) -> Rig {
        let rig = Rig::bare(seed);
        rig.server.install_driver(record).expect("install driver");
        rig
    }

    /// The rig before any driver is installed.
    pub fn bare(seed: u64) -> Rig {
        let net = Network::new();
        net.reseed(seed);
        net.scheduler().reseed(seed);
        let db = Arc::new(MiniDb::with_clock("orders", net.clock().clone()));
        let db_addr = Addr::new("db1", 5432);
        let db_server = Arc::new(DbServer::new(db.clone()));
        net.bind_arc(db_addr.clone(), db_server.clone())
            .expect("db1:5432 is unbound on a fresh network");
        let primary = Addr::new("db1", DRIVOLUTION_PORT);
        let server = attach_in_database(&net, db.clone(), primary.clone(), ServerConfig::default())
            .expect("attach server on a fresh network");
        Rig {
            net,
            db_server,
            server,
            primary,
            url: DbUrl::direct(db_addr.clone(), "orders"),
            db_addr,
        }
    }

    /// A client with an empty in-memory depot that trusts the server.
    pub fn client(&self, host: &str) -> Arc<Bootloader> {
        Bootloader::new(
            &self.net,
            Addr::new(host, 1),
            BootloaderConfig::same_host()
                .trusting(self.server.certificate())
                .with_depot(DriverDepot::in_memory()),
        )
    }

    pub fn tap(&self, tracer: &Arc<Tracer>) {
        tap_primary(&self.net, &self.primary, &self.server, tracer);
        let inner: Arc<dyn Service> = self.db_server.clone();
        Tap::rebind(
            &self.net,
            &self.db_addr,
            Tap::database(inner, tracer.clone()),
        );
    }
}

impl ColdFetch {
    fn setup(seed: u64, scale: Scale, tracer: Option<Arc<Tracer>>, probe: &mut Probe) -> Self {
        let (record, target, rig, clients) = probe.work(SETUP_BUILD, || {
            let (record, target) = seeded_record(1, v1(), COLD_DRIVER_BYTES, seed);
            let rig = Rig::build(seed, &record);
            let clients: Vec<Arc<Bootloader>> = (0..scale.cold_clients)
                .map(|i| rig.client(&format!("app{i:04}")))
                .collect();
            place_two_zones(&rig.net, &clients);
            (record, target, rig, clients)
        });
        if let Some(t) = &tracer {
            rig.tap(t);
        }
        let start = net_mark(&rig.net, &rig.primary, &rig.db_addr);
        ColdFetch {
            order: shuffled(clients.len(), seed),
            clients,
            target,
            driver_len: record.binary.len() as u64,
            start,
            end: start,
            errors: 0,
            first_error: None,
            net: rig.net,
            primary: rig.primary,
            db: rig.db_addr,
            url: rig.url,
        }
    }
}

impl Scenario for ColdFetch {
    fn run(&mut self, probe: &mut Probe) {
        let props = props();
        for &i in &self.order {
            let client = &self.clients[i];
            let mut error = None;
            probe.step(STEP_BOOTSTRAP, || {
                match client.bootstrap(&self.url, &props) {
                    Ok(_) => (1, 0),
                    Err(e) => {
                        error = Some(e.to_string());
                        (0, 0)
                    }
                }
            });
            if let Some(e) = error {
                self.errors += 1;
                self.first_error.get_or_insert(e);
            }
        }
        self.end = net_mark(&self.net, &self.primary, &self.db);
    }

    fn net(&self) -> &Network {
        &self.net
    }

    fn verdict(&self) -> Verdict {
        let (mut v, boot, off_target) = base_verdict(
            self.start,
            self.end,
            self.end.virtual_ms,
            &self.clients,
            BootStats::default(),
            self.target,
        );
        let n = self.clients.len() as u64;
        v.failed = off_target.max(self.errors);
        v.ops = n - v.failed;
        v.payload_bytes = v.ops * self.driver_len;
        first(&mut v, self.errors > 0, || {
            format!(
                "{} bootstraps failed, first: {}",
                self.errors,
                self.first_error.as_deref().unwrap_or("?")
            )
        });
        first(&mut v, boot.downloads != n, || {
            format!("BootStats downloads = {}, expected {n}", boot.downloads)
        });
        first(&mut v, boot.revalidations != 0, || {
            format!(
                "BootStats revalidations = {}, expected 0",
                boot.revalidations
            )
        });
        v
    }
}

// --- the FleetSim worlds -----------------------------------------------------

fn fleet_addrs() -> (Addr, Addr) {
    (Addr::new("db1", DRIVOLUTION_PORT), Addr::new("db1", 5432))
}

/// Bootstraps the fleet in seeded order (what `FleetSim::bootstrap_all`
/// does, minus its fixed order), then places the hosts in two zones.
/// Leases are all granted at virtual time 0; link latency starts with the
/// timed part.
fn bootstrap_fleet(sim: &FleetSim, seed: u64, probe: &mut Probe) {
    sim.net().reseed(seed);
    sim.net().scheduler().reseed(seed);
    let props = props();
    for batch in shuffled(sim.clients().len(), seed).chunks(BOOTSTRAP_BATCH) {
        probe.work(SETUP_BOOTSTRAP, || {
            for &i in batch {
                let conn = sim.clients()[i]
                    .connect(sim.url(), &props)
                    .unwrap_or_else(|e| panic!("client {i} failed to bootstrap: {e}"));
                drop(conn);
            }
        });
    }
    place_two_zones(sim.net(), sim.clients());
}

/// Clients bootstrapped per setup step (about 5 ms of work).
const BOOTSTRAP_BATCH: usize = 50;

/// Pumps `sim` in steps of [`PUMP_STEP_MS`] until `until_ms`, crediting each
/// step with the ops `ops_so_far` reports since the previous one. `done`
/// (checked between steps, outside their timing) ends the pump early.
fn pump(
    sim: &FleetSim,
    probe: &mut Probe,
    until_ms: u64,
    mut ops_so_far: impl FnMut() -> u64,
    mut done: impl FnMut() -> bool,
) {
    let mut seen = ops_so_far();
    while sim.net().clock().now_ms() < until_ms && !done() {
        let target = (sim.net().clock().now_ms() + PUMP_STEP_MS).min(until_ms);
        probe.step(STEP_PUMP, || {
            let tasks = sim.net().run_until(target);
            let now = ops_so_far();
            let ops = now - seen;
            seen = now;
            (ops, tasks)
        });
    }
}

/// Virtual time one `run_until` step advances: short enough that a step is
/// a few ms of wall time, so a round is hundreds of independently timed
/// steps.
const PUMP_STEP_MS: u64 = 1_000;

const FLEET_LEASE_MS: u64 = 10 * MINUTE;

/// `FleetSim::build_with_lifecycle`: unbatched self-driving clients (one
/// poll task, one lease timer and one maintenance task each), every seat
/// of a full licence table taken, no upgrade published. The timed part
/// pumps three lease periods; an op is one lease renewal the server
/// granted.
struct RenewStorm {
    sim: FleetSim,
    target: u64,
    start: NetMark,
    end: NetMark,
    boot0: BootStats,
    renewals0: u64,
    seats: usize,
    max_holders: usize,
}

const STORM_LEASES: u64 = 3;

impl RenewStorm {
    fn setup(seed: u64, scale: Scale, tracer: Option<Arc<Tracer>>, probe: &mut Probe) -> Self {
        let sim = probe.work(SETUP_BUILD, || {
            FleetSim::build_with_lifecycle(
                scale.storm_clients,
                FLEET_LEASE_MS,
                false,
                0,
                LifecyclePolicy::driven(DEFAULT_POLL_EVERY),
            )
        });
        let (primary, db) = fleet_addrs();
        if let Some(t) = &tracer {
            tap_primary(sim.net(), &primary, sim.server(), t);
        }
        // A fully seated licence table: every renewal goes through
        // `LicenseManager::acquire` against a limit it sits exactly at.
        sim.server()
            .licenses()
            .set_limit(DriverId(1), scale.storm_clients);
        bootstrap_fleet(&sim, seed, probe);
        let start = net_mark(sim.net(), &primary, &db);
        RenewStorm {
            target: published(sim.server(), DriverId(1)).0,
            boot0: sum_boot_stats(sim.clients()),
            renewals0: sim.server().stats().renewals,
            seats: scale.storm_clients,
            max_holders: 0,
            start,
            end: start,
            sim,
        }
    }
}

impl Scenario for RenewStorm {
    fn run(&mut self, probe: &mut Probe) {
        let sim = &self.sim;
        let until = self.start.virtual_ms + STORM_LEASES * FLEET_LEASE_MS;
        // The seat table is read once a virtual minute, between steps.
        let mut max_holders = 0;
        let mut next_check = self.start.virtual_ms;
        pump(
            sim,
            probe,
            until,
            || sim.server().stats().renewals,
            || {
                if sim.net().clock().now_ms() >= next_check {
                    next_check += MINUTE;
                    max_holders =
                        max_holders.max(sim.server().licenses().holders(DriverId(1)).len());
                }
                false
            },
        );
        let (primary, db) = fleet_addrs();
        self.end = net_mark(sim.net(), &primary, &db);
        self.max_holders = max_holders.max(sim.server().licenses().holders(DriverId(1)).len());
    }

    fn net(&self) -> &Network {
        self.sim.net()
    }

    fn verdict(&self) -> Verdict {
        let (mut v, boot, off_target) = base_verdict(
            self.start,
            self.end,
            self.end.virtual_ms,
            self.sim.clients(),
            self.boot0,
            self.target,
        );
        let failed_renewals = boot.failed_renewals - self.boot0.failed_renewals;
        v.ops = self.sim.server().stats().renewals - self.renewals0;
        v.failed = failed_renewals + off_target;
        v.counters.push(("server_renewals", v.ops));
        v.counters
            .push(("license_holders", self.max_holders as u64));
        let (granted, expected) = (v.ops, STORM_LEASES * self.sim.clients().len() as u64);
        first(&mut v, granted != expected, || {
            format!("server granted {granted} renewals, expected {expected}")
        });
        first(&mut v, failed_renewals != 0, || {
            format!("{failed_renewals} client renewals failed")
        });
        first(&mut v, self.max_holders > self.seats, || {
            format!(
                "LicenseManager holds {} seats over a limit of {}",
                self.max_holders, self.seats
            )
        });
        v
    }
}

const ROLLOUT_PADDING: usize = 64 * 1024;

/// `FleetSim::build_rollout_batched`: depot-equipped clients whose renewals
/// ride `RENEW_BATCH` frames, a 64 KiB driver. The timed part publishes v2
/// staged and drives canary → 10 % → 30 % → rest to completion; an op is
/// one client upgraded v1→v2.
struct DeltaRollout {
    sim: FleetSim,
    canary: usize,
    target: u64,
    start: NetMark,
    end: NetMark,
    converged_at_ms: u64,
    boot0: BootStats,
    package_len: u64,
    rollout: Option<Arc<RolloutOrchestrator>>,
}

impl DeltaRollout {
    fn setup(seed: u64, scale: Scale, tracer: Option<Arc<Tracer>>, probe: &mut Probe) -> Self {
        let sim = probe.work(SETUP_BUILD, || {
            FleetSim::build_rollout_batched(scale.rollout_clients, FLEET_LEASE_MS, ROLLOUT_PADDING)
        });
        let (primary, db) = fleet_addrs();
        if let Some(t) = &tracer {
            tap_primary(sim.net(), &primary, sim.server(), t);
        }
        bootstrap_fleet(&sim, seed, probe);
        let start = net_mark(sim.net(), &primary, &db);
        DeltaRollout {
            canary: scale.canary,
            target: 0,
            boot0: sum_boot_stats(sim.clients()),
            start,
            end: start,
            converged_at_ms: start.virtual_ms,
            package_len: 0,
            rollout: None,
            sim,
        }
    }
}

impl Scenario for DeltaRollout {
    fn run(&mut self, probe: &mut Probe) {
        let sim = &self.sim;
        let canary = self.canary;
        let ro = probe.work(STEP_PUBLISH, || {
            sim.publish_staged(2, v2(), ROLLOUT_PADDING);
            sim.start_rollout(
                DriverId(1),
                DriverId(2),
                &RolloutPlan {
                    canary,
                    wave_pcts: vec![10, 30],
                },
                RolloutConfig {
                    evaluate_every: Duration::from_secs(60),
                    // The observation window outlasts a lease so every wave
                    // member renews (and reports) inside it.
                    observe: Duration::from_millis(FLEET_LEASE_MS + 5 * MINUTE),
                    min_reports: 3,
                    ..RolloutConfig::default()
                },
            )
        });
        let n = sim.clients().len() as u64;
        let mut converged_at = None;
        let deadline = self.start.virtual_ms + 20 * (FLEET_LEASE_MS + 5 * MINUTE);
        pump(
            sim,
            probe,
            deadline,
            || {
                let s = sim.server().stats();
                let upgraded = s.activation_reports - s.activation_failures;
                if upgraded >= n && converged_at.is_none() {
                    converged_at = Some(sim.net().clock().now_ms());
                }
                upgraded
            },
            || !matches!(ro.status().phase, RolloutPhase::Wave(_)),
        );
        let (primary, db) = fleet_addrs();
        self.end = net_mark(sim.net(), &primary, &db);
        self.converged_at_ms = converged_at.unwrap_or(self.end.virtual_ms);
        let (target, package_len) = published(sim.server(), DriverId(2));
        self.target = target;
        self.package_len = package_len;
        self.rollout = Some(ro);
    }

    fn net(&self) -> &Network {
        self.sim.net()
    }

    fn verdict(&self) -> Verdict {
        let (mut v, boot, off_target) = base_verdict(
            self.start,
            self.end,
            self.converged_at_ms,
            self.sim.clients(),
            self.boot0,
            self.target,
        );
        let n = self.sim.clients().len() as u64;
        v.failed = off_target;
        v.ops = n - off_target;
        let srv = self.sim.server().stats();
        let agg = self.sim.aggregators().iter().fold((0, 0), |(f, r), a| {
            let s = a.stats();
            (f + s.batch_frames, r + s.coalesced_renewals)
        });
        v.counters.extend([
            ("plan_hits", srv.plan_hits),
            ("plan_misses", srv.plan_misses),
            ("batch_frames", agg.0),
            ("batched_renewals", agg.1),
            ("chunk_requests", srv.chunk_requests),
            ("chunk_bytes", srv.chunk_bytes),
            ("activation_reports", srv.activation_reports),
        ]);
        // What the upgrades delivered: one v2 package per upgraded client,
        // however few of its bytes travelled.
        v.payload_bytes = v.ops * self.package_len;
        let phase = self.rollout.as_ref().map(|r| r.status().phase);
        first(&mut v, phase != Some(RolloutPhase::Complete), || {
            format!("rollout phase is {phase:?}, expected Complete")
        });
        let upgrades = boot.upgrades - self.boot0.upgrades;
        first(&mut v, upgrades != n, || {
            format!("{upgrades} clients upgraded, expected {n}")
        });
        v
    }
}

const HOTSWAP_LEASE_MS: u64 = 5 * MINUTE;
const LOAD_EVERY: Duration = Duration::from_secs(5);
/// Every third client spreads its transaction over three firings, so
/// sessions are mid-transaction whenever the upgrade lands.
const HOLD_EVERY: usize = 3;
const LOAD_WARMUP_MS: u64 = 2 * MINUTE;

/// `FleetSim::build_hotswap` with a coexistence window, under `SteadyLoad`.
/// The timed part publishes the upgrade and pumps one lease period; an op
/// is one committed transaction.
struct HotswapOltp {
    sim: FleetSim,
    load: Arc<SteadyLoad>,
    target: u64,
    start: NetMark,
    end: NetMark,
    converged_at_ms: u64,
    boot0: BootStats,
    load0: fleet::LoadStats,
}

impl HotswapOltp {
    fn setup(seed: u64, scale: Scale, tracer: Option<Arc<Tracer>>, probe: &mut Probe) -> Self {
        let sim = probe.work(SETUP_BUILD, || {
            FleetSim::build_hotswap(
                scale.hotswap_clients,
                HOTSWAP_LEASE_MS,
                Some(SwapConfig::default()),
            )
        });
        let (primary, db) = fleet_addrs();
        if let Some(t) = &tracer {
            tap_primary(sim.net(), &primary, sim.server(), t);
            // `FleetSim` keeps its `DbServer` to itself and `Network` has no
            // lookup, so a from-outside tap at the database address needs
            // a `DbServer` the benchmark owns. On traced rounds only, the
            // application's tables move to a second `MiniDb` of the same
            // name (no connection is open yet) while the Drivolution
            // server keeps its driver tables in the first; untraced rounds
            // run the `FleetSim` world as built.
            let app_db = Arc::new(MiniDb::with_clock("fleetdb", sim.net().clock().clone()));
            let db_server: Arc<dyn Service> = Arc::new(DbServer::new(app_db));
            Tap::rebind(sim.net(), &db, Tap::database(db_server, t.clone()));
        }
        sim.net().reseed(seed);
        sim.net().scheduler().reseed(seed);
        let load = probe.work(SETUP_BOOTSTRAP, || {
            let load =
                SteadyLoad::launch(sim.net(), sim.clients(), sim.url(), LOAD_EVERY, HOLD_EVERY);
            load.open_all().expect("steady load opens on a fresh fleet");
            load
        });
        place_two_zones(sim.net(), sim.clients());
        // Two minutes of steady state before the clock starts: pools are
        // warm and held transactions are in flight when the upgrade lands.
        let warm_until = sim.net().clock().now_ms() + LOAD_WARMUP_MS;
        while sim.net().clock().now_ms() < warm_until {
            let target = sim.net().clock().now_ms() + PUMP_STEP_MS;
            probe.work(SETUP_BOOTSTRAP, || sim.net().run_until(target));
        }
        let start = net_mark(sim.net(), &primary, &db);
        HotswapOltp {
            target: 0,
            boot0: sum_boot_stats(sim.clients()),
            load0: load.stats(),
            start,
            end: start,
            converged_at_ms: start.virtual_ms,
            load,
            sim,
        }
    }
}

impl Scenario for HotswapOltp {
    fn run(&mut self, probe: &mut Probe) {
        let sim = &self.sim;
        let load = &self.load;
        probe.work(STEP_PUBLISH, || sim.publish_upgrade(false));
        let n = sim.clients().len();
        let mut converged_at = None;
        pump(
            sim,
            probe,
            self.start.virtual_ms + HOTSWAP_LEASE_MS,
            || {
                if converged_at.is_none() && sim.count_on(v2()) == n {
                    converged_at = Some(sim.net().clock().now_ms());
                }
                load.stats().committed
            },
            || false,
        );
        let (primary, db) = fleet_addrs();
        self.end = net_mark(sim.net(), &primary, &db);
        self.converged_at_ms = converged_at.unwrap_or(self.end.virtual_ms);
        self.target = published(sim.server(), DriverId(2)).0;
    }

    fn net(&self) -> &Network {
        self.sim.net()
    }

    fn verdict(&self) -> Verdict {
        let (mut v, _, off_target) = base_verdict(
            self.start,
            self.end,
            self.converged_at_ms,
            self.sim.clients(),
            self.boot0,
            self.target,
        );
        let l = self.load.stats();
        let dropped = l.dropped_queries - self.load0.dropped_queries;
        let severed = l.severed_transactions - self.load0.severed_transactions;
        v.ops = l.committed - self.load0.committed;
        v.failed = dropped + severed + off_target;
        let swap = self.sim.total_swap_stats();
        v.counters.extend([
            ("load_attempted", l.attempted - self.load0.attempted),
            ("load_committed", v.ops),
            ("load_dropped", dropped),
            ("load_severed", severed),
            ("load_reconnects", l.reconnects - self.load0.reconnects),
            ("swap_windows_opened", swap.windows_opened),
            ("swap_windows_completed", swap.windows_completed),
            ("swap_sessions_forced", swap.sessions_forced),
            ("swap_blackout_ticks", swap.blackout_ticks),
        ]);
        first(&mut v, dropped != 0 || severed != 0, || {
            format!("LoadStats dropped = {dropped}, severed = {severed}, expected 0")
        });
        let committed = v.ops;
        first(&mut v, committed == 0, || {
            "steady load committed nothing".into()
        });
        v
    }
}
