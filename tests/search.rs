//! A seeded search for broken promises. Each seed draws one world — a
//! fleet (`SimSpec`), a fault schedule (`ChaosSchedule`), an upgrade or
//! a staged rollout (`RolloutConfig`), an application load
//! (`SteadyLoad`) and the side actors below — runs it, replays it, and
//! holds what it left to `oracle::check`. A world that breaks a promise
//! is shrunk (drop an ingredient or a fault, narrow a window, halve the
//! time or the fleet) while it still breaks the same one, and printed as
//! the Rust source of the smallest world found.
//!
//! Tier-1 runs seeds 1 to 200; `cargo test --test search -- --ignored`
//! sweeps thousands. `scripts/mutants.sh` applies each of
//! `tests/mutants/*.patch` to a scratch copy and runs this file against
//! it.

mod oracle;

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;

use drivolution::cluster::{
    cluster_image, Backend, ClusterDriver, Controller, VirtualDb, CLUSTER_V2,
};
use drivolution::core::chunk::ChunkingParams;
use drivolution::core::proto::{DrvErrCode, DrvMsg, DrvRequest, HaveSummary};
use drivolution::core::Extension;
use drivolution::fleet::{FleetSim, SimSpec, SteadyLoad};
use drivolution::netsim::{NetError, Pipe, Service};
use drivolution::prelude::*;

use oracle::{ClientEnd, Commit, FinishedRun, Violation};

const MINUTE: u64 = 60_000;
const PADDING: usize = 4 * 1024;

/// A fault of the world's schedule, in minutes after the world starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    /// Every frame is dropped with probability `pct` %.
    Loss { pct: u8, from: u64, until: u64 },
    /// Fleet client `client` cannot reach the database host.
    Partition {
        client: usize,
        from: u64,
        until: u64,
    },
    /// Every link's latency is multiplied by `factor`.
    Storm { factor: u64, from: u64, until: u64 },
    /// The first zone's mirror is down.
    MirrorOutage { from: u64, until: u64 },
}

impl Fault {
    fn window(&mut self) -> (&mut u64, &mut u64) {
        match self {
            Fault::Loss { from, until, .. }
            | Fault::Partition { from, until, .. }
            | Fault::Storm { from, until, .. }
            | Fault::MirrorOutage { from, until } => (from, until),
        }
    }

    fn until(mut self) -> u64 {
        *self.window().1
    }
}

/// How the new driver reaches the fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Upgrade {
    /// Published to everyone at once (pushed on a notify fleet).
    Publish,
    /// A staged rollout; `faulty` fails every activation of the new
    /// version, so the canary halts it and the fleet rolls back.
    Rollout { faulty: bool },
}

/// One world: everything a seed draws.
#[derive(Clone, Debug, PartialEq, Eq)]
struct World {
    seed: u64,
    /// Fleet clients (`app0000` onwards).
    clients: usize,
    /// Two zones, each with a mirror; clients carry depots.
    zones: bool,
    /// Clients open notify channels and the upgrade is pushed; leases
    /// are an hour long, so only the notice can bring the upgrade early.
    notify: bool,
    /// An aggregator renews for the fleet in `RENEW_BATCH` frames.
    batched: bool,
    /// Upgrades open a coexistence window.
    hot_swap: bool,
    /// An application transaction load on every client.
    load: bool,
    /// A seat limit on the first driver, as many seats as bootloaders.
    seats: bool,
    /// An application whose geo query inside a transaction needs a lazy
    /// extension fetch, and a session closed mid-transaction.
    geo: bool,
    /// Two bootloaders on one host whose requests differ.
    twins: bool,
    /// Frame tags the primary refuses as a server from before them.
    refuse: Vec<u8>,
    /// Images in the `HAVE` summary of a request a foreign client sends.
    have_images: usize,
    /// A cluster application connecting three times.
    cluster: bool,
    upgrade: Upgrade,
    /// Minutes after the start the new driver is published.
    publish_at: u64,
    /// Minutes the world runs after the publish before it settles.
    run: u64,
    faults: Vec<Fault>,
}

/// SplitMix64: the search's only source of choices.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    fn window(&mut self, span: u64) -> (u64, u64) {
        let from = 1 + self.below(span);
        (from, from + 1 + self.below(span / 2))
    }
}

impl World {
    fn draw(seed: u64) -> Self {
        let mut d = Draw(seed);
        let clients = 1 + d.below(5) as usize;
        let upgrade = match d.below(3) {
            0 => Upgrade::Rollout {
                faulty: d.one_in(2),
            },
            _ => Upgrade::Publish,
        };
        let rollout = matches!(upgrade, Upgrade::Rollout { .. });
        let batched = d.one_in(3);
        // A wave after the canary holds two hosts only in a fleet of three
        // or more, and only then can its reports share one
        // `ACTIVATION_BATCH`.
        let clients = if rollout && batched {
            clients.max(3)
        } else {
            clients
        };
        let notify = !batched && !rollout && d.one_in(3);
        let mut refuse = Vec::new();
        for tag in [18, 20, 21] {
            if d.one_in(6) {
                refuse.push(tag);
            }
        }
        let have_images = [0, 0, 0, 40, 5_000, 70_000][d.below(6) as usize];
        let mut world = World {
            seed,
            clients,
            zones: d.one_in(3),
            notify,
            batched,
            hot_swap: d.one_in(3),
            load: d.one_in(3),
            seats: d.one_in(3),
            geo: d.one_in(3),
            twins: !rollout && d.one_in(3),
            refuse,
            have_images,
            cluster: d.one_in(4),
            upgrade,
            publish_at: 1 + d.below(5),
            run: 40,
            faults: Vec::new(),
        };
        for _ in 0..d.below(4) {
            let (from, until) = d.window(20);
            world.faults.push(match d.below(4) {
                0 => Fault::Loss {
                    pct: [20, 50, 100][d.below(3) as usize],
                    from,
                    until,
                },
                1 => Fault::Partition {
                    client: d.below(clients as u64) as usize,
                    from,
                    until,
                },
                2 => Fault::Storm {
                    factor: 2 + d.below(8),
                    from,
                    until,
                },
                _ => Fault::MirrorOutage { from, until },
            });
        }
        world
    }

    /// Smaller worlds that might still break the promise this one does:
    /// each drops one ingredient or fault, narrows one window, or halves
    /// the time or the fleet.
    fn smaller(&self) -> Vec<World> {
        let mut out = Vec::new();
        let mut push = |f: &dyn Fn(&mut World)| {
            let mut w = self.clone();
            f(&mut w);
            if w != *self {
                out.push(w);
            }
        };
        for i in 0..self.faults.len() {
            push(&|w| {
                w.faults.remove(i);
            });
            push(&|w| {
                let (from, until) = w.faults[i].window();
                *until = *from + (*until - *from) / 2;
            });
        }
        push(&|w| w.zones = false);
        push(&|w| w.notify = false);
        push(&|w| w.batched = false);
        push(&|w| w.hot_swap = false);
        push(&|w| w.load = false);
        push(&|w| w.seats = false);
        push(&|w| w.geo = false);
        push(&|w| w.twins = false);
        push(&|w| w.cluster = false);
        push(&|w| w.refuse.clear());
        push(&|w| w.have_images = 0);
        push(&|w| w.upgrade = Upgrade::Publish);
        push(&|w| w.publish_at = 1);
        push(&|w| w.run /= 2);
        push(&|w| {
            w.clients = w.clients.div_ceil(2);
            let last = w.clients - 1;
            for f in &mut w.faults {
                if let Fault::Partition { client, .. } = f {
                    *client = (*client).min(last);
                }
            }
        });
        out
    }

    /// This world as the Rust source that builds it.
    fn source(&self) -> String {
        let mut source = format!("{self:#?}")
            .replace("refuse: [", "refuse: vec![")
            .replace("faults: [", "faults: vec![")
            .replace("upgrade: ", "upgrade: Upgrade::");
        for fault in ["Loss {", "Partition {", "Storm {", "MirrorOutage {"] {
            source = source.replace(fault, &format!("Fault::{fault}"));
        }
        source
    }
}

/// The primary as the world's clients reach it: refuses the world's
/// frame tags as a server from before them would, and keeps every
/// frame it received or answered.
struct Front {
    srv: Arc<DrivolutionServer>,
    refuse: Vec<u8>,
    frames: Mutex<Vec<Bytes>>,
}

impl Service for Front {
    fn call(&self, from: &Addr, request: Bytes) -> Result<Bytes, NetError> {
        let tag = request.first().copied().unwrap_or_default();
        if self.refuse.contains(&tag) {
            return Err(NetError::Protocol(format!("unknown drv msg tag {tag}")));
        }
        let reply = self.srv.call(from, request.clone());
        let mut frames = self.frames.lock().unwrap_or_else(|e| e.into_inner());
        frames.push(request);
        if let Ok(reply) = &reply {
            frames.push(reply.clone());
        }
        reply
    }

    fn accept_pipe(&self, from: &Addr, pipe: Pipe) -> Result<(), NetError> {
        self.srv.accept_pipe(from, pipe)
    }
}

fn v(major: i32) -> DriverVersion {
    DriverVersion::new(major, 0, 0)
}

/// The digest of the image the fleet's server publishes as driver `id`.
fn published(id: i32) -> u64 {
    DriverImage::new(format!("fleet-drv-{id}"), v(id), id as u16).digest()
}

/// The geo application: a transaction whose geo query needs an
/// extension the driver lacks, then a session closed mid-transaction.
fn geo_app(sim: &FleetSim, run: &mut FinishedRun) {
    let srv = sim.server();
    srv.assembler().register(Extension::Gis);
    let config = BootloaderConfig::same_host()
        .trusting(srv.certificate())
        .with_lazy_extensions()
        .with_lifecycle(LifecyclePolicy::manual());
    let boot = Bootloader::new(sim.net(), Addr::new("geo-app", 1), config);
    let props = ConnectProps::user("admin", "admin");
    let mut conn = boot.connect(sim.url(), &props).expect("bootstraps");
    conn.execute("CREATE TABLE probe (id INTEGER PRIMARY KEY)")
        .expect("a fresh table");
    let committed =
        conn.begin().is_ok() && conn.execute("INSERT INTO probe VALUES (1)").is_ok() && {
            let _ = conn.geo_query("POINT(1 2)");
            conn.commit().is_ok()
        };
    let mut closed = boot.connect(sim.url(), &props).expect("connects");
    let wrote = closed.begin().is_ok() && closed.execute("INSERT INTO probe VALUES (2)").is_ok();
    let _ = closed.close();
    let mut look = boot.connect(sim.url(), &props).expect("connects");
    let mut visible = |id: i64| {
        let sql = format!("SELECT id FROM probe WHERE id = {id}");
        look.execute(&sql)
            .ok()
            .and_then(|r| r.rows().ok())
            .is_some_and(|r| r.rows.len() == 1)
    };
    run.commits.push(Commit {
        what: "BEGIN; INSERT; geo query; COMMIT".into(),
        committed,
        visible: visible(1),
    });
    if wrote {
        run.abandoned
            .push(("BEGIN; INSERT; close".into(), visible(2)));
    }
}

/// A cluster application: which of two controllers each of three
/// connects reached.
fn cluster_app(net: &Network) -> Vec<usize> {
    let controllers = [1u32, 2].map(|id| Addr::new(format!("controller{id}"), 25322));
    for (i, at) in controllers.iter().enumerate() {
        let id = i as u32 + 1;
        let host = format!("replica{id}");
        let db = Arc::new(MiniDb::with_clock("vdb", net.clock().clone()));
        net.bind_arc(Addr::new(host.clone(), 5432), Arc::new(DbServer::new(db)))
            .expect("a fresh host");
        let driver = legacy_driver(net, &Addr::new(format!("controller{id}"), 1), 2).expect("v2");
        let backend = Backend::with_driver(
            host.clone(),
            driver,
            DbUrl::direct(Addr::new(host, 5432), "vdb"),
            ConnectProps::user("admin", "admin"),
        );
        Controller::launch(
            net,
            id,
            at.clone(),
            VirtualDb::new("vdb", vec![backend]),
            CLUSTER_V2,
        )
        .expect("a fresh controller");
    }
    let image = cluster_image("sequoia-driver", v(2), 2);
    let driver = ClusterDriver::new(image, net.clone(), Addr::new("web0", 1)).expect("loads");
    let url: DbUrl = "rdbc:cluster://controller1:25322,controller2:25322/vdb"
        .parse()
        .expect("a valid url");
    (0..3)
        .map(|_| {
            let before = controllers
                .clone()
                .map(|c| net.stats().for_addr(&c).requests);
            let _ = driver.connect(&url, &ConnectProps::user("admin", "admin"));
            let after = controllers
                .clone()
                .map(|c| net.stats().for_addr(&c).requests);
            (0..2).find(|&i| after[i] > before[i]).unwrap_or(2)
        })
        .collect()
}

/// Runs `w` once: what it left, and a digest of its state.
fn play(w: &World) -> (FinishedRun, u64) {
    let rollout = matches!(w.upgrade, Upgrade::Rollout { .. });
    let sim = FleetSim::from_spec(SimSpec {
        driver_padding: PADDING,
        zones: if w.zones { &["east", "west"] } else { &[] },
        same_zone_ms: 1,
        cross_zone_ms: 5,
        notify: w.notify,
        checked: rollout,
        hot_swap: w
            .hot_swap
            .then(|| SwapConfig::new(Duration::from_secs(20), Duration::from_secs(1))),
        batched: w.batched,
        ..SimSpec::new(w.clients, if w.notify { 60 } else { 5 } * MINUTE)
    });
    let net = sim.net().clone();
    net.reseed(w.seed);
    net.scheduler().reseed(w.seed);
    let front = Arc::new(Front {
        srv: sim.server().clone(),
        refuse: w.refuse.clone(),
        frames: Mutex::new(Vec::new()),
    });
    net.unbind(sim.server_addr());
    net.bind_arc(sim.server_addr().clone(), front.clone())
        .expect("just unbound");
    let mut run = FinishedRun::default();
    let t0 = net.clock().now_ms();
    let props = ConnectProps::user("admin", "admin");
    let twins: Vec<_> = (1..=2)
        .filter(|_| w.twins)
        .map(|port| {
            let mut config = BootloaderConfig::same_host()
                .trusting(sim.server().certificate())
                .with_lifecycle(LifecyclePolicy::driven(Duration::from_secs(60)));
            if w.notify {
                config = config.with_notify_channel();
            }
            Bootloader::new(&net, Addr::new("twin", port), config)
        })
        .collect();
    // As many seats as bootloaders: a client is never refused one, and
    // one more holder is an oversubscription.
    let seats = w.clients + twins.len() + usize::from(w.geo);
    if w.seats {
        sim.server().licenses().set_limit(DriverId(1), seats);
    }
    sim.bootstrap_all();
    for (twin, locale) in twins.iter().zip(["en_US", "fr_FR"]) {
        let props = props.clone().with_locale(locale);
        drop(twin.connect(sim.url(), &props).expect("bootstraps"));
    }
    if w.geo {
        geo_app(&sim, &mut run);
    }
    if w.have_images > 0 {
        let req = DrvRequest {
            have: Some(HaveSummary {
                images: (1..=w.have_images as u64).collect(),
                params: ChunkingParams::default(),
                base: None,
            }),
            ..DrvRequest::bootstrap("fleetdb", "admin", "RDBC", "linux-x86_64")
        };
        let _ = net.request(
            &Addr::new("foreign", 1),
            sim.server_addr(),
            DrvMsg::Request(req).encode(),
        );
    }
    let reached = if w.cluster {
        cluster_app(&net)
    } else {
        Vec::new()
    };
    let load = w.load.then(|| {
        let load = SteadyLoad::launch(&net, sim.clients(), sim.url(), Duration::from_secs(20), 2);
        load.open_all().expect("every client connects");
        load
    });
    let mut chaos = ChaosSchedule::new();
    for f in &w.faults {
        chaos = match *f {
            Fault::Loss { pct, from, until } => chaos.loss_window(
                f64::from(pct) / 100.0,
                t0 + from * MINUTE,
                t0 + until * MINUTE,
            ),
            Fault::Partition {
                client,
                from,
                until,
            } => chaos.host_partition(
                &format!("app{client:04}"),
                "db1",
                t0 + from * MINUTE,
                t0 + until * MINUTE,
            ),
            Fault::Storm {
                factor,
                from,
                until,
            } => chaos.latency_storm(factor, t0 + from * MINUTE, t0 + until * MINUTE),
            Fault::MirrorOutage { from, until } => {
                chaos.host_outage("mirror-east", t0 + from * MINUTE, t0 + until * MINUTE)
            }
        };
    }
    sim.install_chaos(&chaos);

    let published_at = t0 + w.publish_at * MINUTE;
    pump(w, &net, published_at, &mut run);
    let ro = match w.upgrade {
        Upgrade::Publish => {
            sim.publish(2, v(2), PADDING, w.notify);
            None
        }
        Upgrade::Rollout { faulty } => {
            sim.publish_staged(2, v(2), PADDING);
            if faulty {
                sim.inject_activation_fault(Some(v(2)));
            }
            let plan = RolloutPlan {
                canary: 1,
                wave_pcts: vec![50],
            };
            let config = RolloutConfig {
                evaluate_every: Duration::from_secs(30),
                observe: Duration::from_secs(120),
                min_reports: 1,
                ..RolloutConfig::default()
            };
            Some(sim.start_rollout(DriverId(1), DriverId(2), &plan, config))
        }
    };
    let target = match w.upgrade {
        Upgrade::Rollout { faulty: true } => 1,
        _ => 2,
    };
    let ends = || {
        let all = sim.clients().iter().chain(&twins);
        all.map(|c| ClientEnd::of(c)).collect::<Vec<_>>()
    };
    // The world runs `run` minutes past the publish (and past its last
    // fault), then settles for three leases with the network whole.
    let lease_min = if w.notify { 60 } else { 5 };
    let healed = w.faults.iter().map(|f| f.until()).max().unwrap_or(0);
    let minutes = (w.publish_at + w.run).max(healed) - w.publish_at + 3 * lease_min;
    let mut converged = None;
    for minute in 1..=minutes {
        let now = published_at + minute * MINUTE;
        pump(w, &net, now, &mut run);
        if w.seats {
            let held = sim.server().licenses().holders(DriverId(1)).len();
            run.seats.push((now, held, seats));
        }
        if converged.is_none() && ends().iter().all(|c| c.version == Some(v(target))) {
            converged = Some(now);
        }
    }
    if let Some(load) = &load {
        load.stop();
    }

    run.clients = ends();
    run.target = Some((v(target), Some(published(target))));
    if w.notify {
        // Each client hears the notice when it is published; one whose
        // renewal the network stops renews on the retry after it heals.
        let clear = (t0 + healed * MINUTE).max(published_at);
        run.notified = Some((clear + 3 * MINUTE, converged));
    }
    run.severed = sim.total_swap_stats().transactions_severed;
    if let Some(ro) = &ro {
        let status = ro.status();
        if target == 1 {
            run.rolled_back_to = Some(v(1));
        } else {
            let counted = status.waves.iter().map(|w| w.ok + w.err).sum();
            let activated = run.clients.iter().filter(|c| c.stats.upgrades > 0).count();
            run.reports = Some((counted, activated));
        }
    }
    let frames = std::mem::take(&mut *front.frames.lock().unwrap_or_else(|e| e.into_inner()));
    if w.refuse.is_empty() {
        let full = frames.iter().filter(|f| oracle::is_full_renewal(f)).count() as u64;
        let resends = frames
            .iter()
            .filter(|f| {
                matches!(
                    DrvMsg::decode((*f).clone()),
                    Ok(DrvMsg::Error {
                        code: DrvErrCode::ResendInFull,
                        ..
                    })
                )
            })
            .count() as u64;
        run.by_reference = Some((full, resends));
    }
    run.mutated = mutated(w.seed, &frames);
    run.frames = frames;

    let mut h = std::collections::hash_map::DefaultHasher::new();
    for c in &run.clients {
        format!("{c:?}").hash(&mut h);
    }
    format!("{:?}", sim.server().stats()).hash(&mut h);
    ro.map(|ro| format!("{:?}", ro.status())).hash(&mut h);
    load.map(|l| l.stats())
        .map(|s| format!("{s:?}"))
        .hash(&mut h);
    (converged, reached, run.frames.len()).hash(&mut h);
    (run, h.finish())
}

/// Runs the scheduler to `at`, keeping where the clock ended when the
/// world's links have no latency.
fn pump(w: &World, net: &Network, at: u64, run: &mut FinishedRun) {
    net.run_until(at);
    if !w.zones {
        run.pumps.push((at, net.clock().now_ms()));
    }
}

/// The frame whose window mutants the run checks: the seed picks one
/// of the tags the run saw, and the longest of its frames under 600
/// bytes goes.
fn mutated(seed: u64, frames: &[Bytes]) -> Option<Bytes> {
    let small = || frames.iter().filter(|f| f.len() <= 600);
    let tags: BTreeSet<u8> = small().filter_map(|f| f.first().copied()).collect();
    let tag = *tags.iter().nth((seed as usize) % tags.len().max(1))?;
    small()
        .filter(|f| f.first() == Some(&tag))
        .max_by_key(|f| f.len())
        .cloned()
}

/// Runs `w` and its replay, and holds them to every promise.
fn judge(w: &World) -> Result<(), Violation> {
    let (mut run, first) = play(w);
    let (_, again) = play(w);
    run.replay = Some((first, again));
    oracle::check(&run)
}

/// Shrinks a world that breaks `promise` while a smaller one still
/// breaks it.
fn shrink(mut w: World, mut why: Violation) -> (World, Violation) {
    'smaller: loop {
        for candidate in w.smaller() {
            if let Err(v) = judge(&candidate) {
                if v.promise == why.promise {
                    (w, why) = (candidate, v);
                    continue 'smaller;
                }
            }
        }
        return (w, why);
    }
}

/// Judges every seed of `seeds`; panics with the seeds that broke each
/// promise and, for each, the first such world shrunk.
fn search(seeds: impl Iterator<Item = u64>) {
    let mut broken: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut shrunk = Vec::new();
    for seed in seeds {
        let w = World::draw(seed);
        if let Err(why) = judge(&w) {
            let seeds = broken.entry(why.promise).or_default();
            if seeds.is_empty() {
                let (small, why) = shrink(w, why);
                shrunk.push(format!("{why}\n{}", small.source()));
            }
            seeds.push(seed);
        }
    }
    let seeds = broken
        .iter()
        .map(|(promise, seeds)| format!("{promise}: seeds {seeds:?}"));
    let report: Vec<String> = seeds.chain(shrunk).collect();
    assert!(broken.is_empty(), "{}", report.join("\n"));
}

/// The world seeds 1 to 200 first broke, shrunk: a healthy staged
/// rollout whose last wave's download a loss window cut short. The
/// client reported the cut transfer as a failed activation, the error
/// gate tripped, and the fleet rolled back from a driver with nothing
/// wrong with it.
#[test]
fn a_download_the_network_cuts_short_is_no_failed_activation() {
    let world = World {
        seed: 3,
        clients: 4,
        zones: false,
        notify: false,
        batched: false,
        hot_swap: false,
        load: true,
        seats: false,
        geo: false,
        twins: false,
        refuse: vec![],
        have_images: 0,
        cluster: false,
        upgrade: Upgrade::Rollout { faulty: false },
        publish_at: 1,
        run: 0,
        faults: vec![Fault::Loss {
            pct: 50,
            from: 11,
            until: 19,
        }],
    };
    assert_eq!(judge(&world), Ok(()));
}

/// The other, shrunk: a pushed upgrade whose download a loss window cut
/// short. The notice that forced the renewal was spent, nothing was
/// owed, and the client waited out its hour-long lease.
#[test]
fn a_notice_whose_download_failed_still_forces_the_next_renewal() {
    let world = World {
        seed: 53,
        clients: 3,
        zones: false,
        notify: true,
        batched: false,
        hot_swap: false,
        load: false,
        seats: false,
        geo: false,
        twins: false,
        refuse: vec![],
        have_images: 0,
        cluster: false,
        upgrade: Upgrade::Publish,
        publish_at: 5,
        run: 0,
        faults: vec![Fault::Loss {
            pct: 50,
            from: 4,
            until: 7,
        }],
    };
    assert_eq!(judge(&world), Ok(()));
}

#[test]
fn seeds_1_to_200_keep_every_promise() {
    search(1..=200);
}

#[test]
#[ignore = "a sweep of 5 000 seeds: minutes"]
fn seeds_201_to_5200_keep_every_promise() {
    search(201..=5_200);
}
