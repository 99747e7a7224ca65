//! Fleet simulation with real components: N bootloader-equipped clients
//! against one in-database Drivolution server, under virtual time.
//!
//! This powers the §3.2 tradeoff experiments: lease time vs upgrade
//! propagation time vs Drivolution-server traffic, and the
//! dedicated-channel ablation.
//!
//! One [`SimSpec`] describes every world, and [`FleetSim::from_spec`]
//! builds it.
//!
//! Nothing here hand-cranks lifecycle beats: every client registers its
//! own lifecycle task (poll grid and lease auto-renewal), every mirror its
//! own heartbeat task, and the fleet runs by pumping
//! [`netsim::Network::run_until`]. Per-mirror heartbeat failures are
//! read straight off the task error counters
//! ([`FleetSim::mirror_heartbeat_failures`]) instead of being swallowed.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use std::time::Duration;

use netsim::{Addr, ChaosSchedule, Network};

use driverkit::{ConnectProps, DbUrl};
use drivolution_bootloader::{
    ActivationCheck, Bootloader, BootloaderConfig, LifecyclePolicy, SwapConfig, SwapStats,
};
use drivolution_core::{
    ApiName, BinaryFormat, DriverId, DriverImage, DriverRecord, DriverVersion, ExpirationPolicy,
    PermissionRule, RenewPolicy, TransferMethod, DRIVOLUTION_PORT,
};
use drivolution_depot::{DriverDepot, MirrorDepot};
use drivolution_server::{
    attach_in_database, DrivolutionServer, RolloutConfig, RolloutOrchestrator, RolloutPlan,
    ServerConfig,
};
use minidb::wire::DbServer;
use minidb::MiniDb;

use crate::aggregator::RenewalAggregator;

/// Default cadence of each client's poll grid (one virtual
/// minute, as the original hand-cranked sweeps used).
pub const DEFAULT_POLL_EVERY: Duration = Duration::from_secs(60);

/// Result of one upgrade-propagation run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PropagationResult {
    /// Virtual milliseconds from publish until every client runs v2.
    pub time_to_full_upgrade_ms: u64,
    /// Requests that reached the Drivolution server over the whole run.
    pub server_requests: u64,
    /// Bytes of those requests and of the server's replies to them.
    pub server_bytes: u64,
    /// Maintenance passes executed across the fleet (the polls of the
    /// clients' lifecycle tasks).
    pub polls: u64,
    /// Mirror heartbeats that failed during the run — surfaced from the
    /// heartbeat tasks' error counters rather than swallowed.
    pub mirror_heartbeat_failures: u64,
}

/// One simulated world: start from [`SimSpec::new`] and set the rest
/// with struct-update syntax. Every client starts from
/// `BootloaderConfig::same_host()` under `lifecycle`, and each other
/// field adds its own part of the config.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimSpec {
    /// Client bootloaders, `app0000:1` onwards.
    pub clients: usize,
    /// Lease length of every permission rule the fleet is routed by.
    pub lease_ms: u64,
    /// Extra bytes in the v1 driver package (realistic driver sizes).
    pub driver_padding: usize,
    /// The clients' lifecycle-task policy (ignored under `batched`).
    pub lifecycle: LifecyclePolicy,
    /// Clients open dedicated notify channels (the push ablation).
    pub notify: bool,
    /// CDN zones, empty for an unzoned fleet. The database lives in the
    /// first, each gets a mirror (`mirror-<zone>:1071`), and clients are
    /// placed round-robin, trust the server and every mirror, and carry
    /// a depot.
    pub zones: &'static [&'static str],
    /// One-way latency of a same-zone link (zoned fleets only).
    pub same_zone_ms: u64,
    /// One-way latency of a cross-zone link (zoned fleets only).
    pub cross_zone_ms: u64,
    /// Rollout clients: a depot, activation reports, and a self-check
    /// that fails for the [`FleetSim::inject_activation_fault`] version.
    pub checked: bool,
    /// A coexistence window on upgrade; `None` expires old sessions at
    /// once (the hot-swap benches' baseline).
    pub hot_swap: Option<SwapConfig>,
    /// Manual clients sharing one image cache, whose renewals one
    /// [`RenewalAggregator`] per zone (`agg-<zone>:1`, or `agg-default:1`)
    /// coalesces into `RENEW_BATCH` frames.
    pub batched: bool,
}

impl SimSpec {
    /// An unzoned fleet of `clients` plain self-driving bootloaders
    /// (polling every [`DEFAULT_POLL_EVERY`]) on `lease_ms` leases.
    pub fn new(clients: usize, lease_ms: u64) -> Self {
        SimSpec {
            clients,
            lease_ms,
            driver_padding: 0,
            lifecycle: LifecyclePolicy::driven(DEFAULT_POLL_EVERY),
            notify: false,
            zones: &[],
            same_zone_ms: 0,
            cross_zone_ms: 0,
            checked: false,
            hot_swap: None,
            batched: false,
        }
    }
}

/// A simulated fleet wired from real components.
pub struct FleetSim {
    net: Network,
    server: Arc<DrivolutionServer>,
    drv_addr: Addr,
    clients: Vec<Arc<Bootloader>>,
    mirrors: Vec<Arc<MirrorDepot>>,
    aggregators: Vec<Arc<RenewalAggregator>>,
    url: DbUrl,
    lease_ms: u64,
    /// When set, activation-checking clients fail their post-activation
    /// self-check for exactly this driver version (the injected
    /// regression of the rollout benchmarks). Only [`SimSpec::checked`]
    /// clients wire the check.
    faulty_version: Arc<Mutex<Option<DriverVersion>>>,
}

impl std::fmt::Debug for FleetSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSim")
            .field("clients", &self.clients.len())
            .field("lease_ms", &self.lease_ms)
            .finish()
    }
}

fn record(id: i64, proto: u16, version: DriverVersion, padding: usize) -> DriverRecord {
    let image = DriverImage::new(format!("fleet-drv-{id}"), version, proto);
    DriverRecord::new(
        DriverId(id),
        ApiName::rdbc(),
        BinaryFormat::Djar,
        drivolution_core::pack::pack_driver_padded(BinaryFormat::Djar, &image, padding),
    )
    .with_version(version)
}

impl FleetSim {
    /// Builds the world `spec` describes, in a fixed order: server,
    /// topology, mirrors, clients, aggregators. The scheduler seeds each
    /// task's jitter from its registration index, so this order fixes
    /// every virtual time.
    pub fn from_spec(spec: SimSpec) -> Self {
        // Each step that cannot fail on the world built here says why.
        let net = Network::new();
        let db = Arc::new(MiniDb::with_clock("fleetdb", net.clock().clone()));
        db.exec(&mut db.admin_session(), "CREATE TABLE load (id INTEGER)")
            .expect("fresh db: no `load` table yet");
        net.bind_arc(Addr::new("db1", 5432), Arc::new(DbServer::new(db.clone())))
            .expect("fresh network: db1:5432 unbound");
        let drv_addr = Addr::new("db1", DRIVOLUTION_PORT);
        let server = attach_in_database(
            &net,
            db,
            drv_addr.clone(),
            ServerConfig {
                default_transfer: TransferMethod::Checksum,
                ..ServerConfig::default()
            },
        )
        .expect("fresh network and db: port unbound, schema absent");
        let v1 = record(1, 1, DriverVersion::new(1, 0, 0), spec.driver_padding);
        server
            .install_driver(&v1)
            .expect("fresh store: driver id 1 unused");
        server
            .add_rule(
                &PermissionRule::any(DriverId(1))
                    .with_lease_ms(spec.lease_ms as i64)
                    .with_transfer(TransferMethod::Any)
                    .with_policies(RenewPolicy::Renew, ExpirationPolicy::AfterCommit),
            )
            .expect("driver 1 was installed just above");
        let mut sim = FleetSim {
            net,
            server,
            drv_addr,
            clients: Vec::with_capacity(spec.clients),
            mirrors: Vec::new(),
            aggregators: Vec::new(),
            url: DbUrl::direct(Addr::new("db1", 5432), "fleetdb"),
            lease_ms: spec.lease_ms,
            faulty_version: Arc::new(Mutex::new(None)),
        };
        if let Some(home) = spec.zones.first() {
            sim.net.with_topology(|t| {
                t.set_default_latency(spec.same_zone_ms, spec.cross_zone_ms);
                t.place("db1", *home);
            });
        }
        for zone in spec.zones {
            let host = format!("mirror-{zone}");
            sim.net.with_topology(|t| t.place(host.clone(), *zone));
            let mirror = MirrorDepot::launch(&sim.net, Addr::new(host, 1071), sim.drv_addr.clone())
                .expect("one mirror host per zone: its address is unbound");
            mirror
                .heartbeat()
                .expect("primary bound above, no fault installed yet");
            sim.mirrors.push(mirror);
        }
        let lifecycle = if spec.batched {
            LifecyclePolicy::manual()
        } else {
            spec.lifecycle
        };
        // Clients placed alike share one configuration, built by the
        // first of them: one per zone, or one for an unzoned fleet. A
        // zone holds each image once: a wave materializes each target
        // image once per zone, and a bootstrap keeps the bytes its zone
        // already holds. A client with a depot of its own owns a copy.
        let own_depot = spec.checked || !spec.zones.is_empty();
        let check = spec.checked.then(|| {
            let faulty = sim.faulty_version.clone();
            ActivationCheck::new(move |image| match *faulty.lock() {
                Some(v) if image.version == v => Err("injected activation regression".to_string()),
                _ => Ok(()),
            })
        });
        let configure = |zone: Option<&str>| {
            let mut config = BootloaderConfig::same_host().with_lifecycle(lifecycle);
            if spec.batched {
                config = config.with_image_cache(Arc::default());
            }
            if zone.is_some() {
                config = config.trusting(sim.server.certificate());
                for m in &sim.mirrors {
                    config = config.trusting(m.certificate());
                }
            }
            if let Some(check) = &check {
                config.activation_check = Some(check.clone());
                config = config.with_activation_reports();
            }
            if let Some(swap) = spec.hot_swap {
                config = config.with_hot_swap(swap);
            }
            if spec.notify {
                config = config.with_notify_channel();
            }
            Arc::new(config)
        };
        let mut configs: HashMap<Option<&str>, Arc<BootloaderConfig>> = HashMap::new();
        let mut placement = spec.zones.iter().cycle();
        for i in 0..spec.clients {
            let host = format!("app{i:04}");
            let zone = placement.next().copied();
            if let Some(zone) = zone {
                sim.net.with_topology(|t| t.place(host.clone(), zone));
            }
            let shared = configs.entry(zone).or_insert_with(|| configure(zone));
            let config = if own_depot {
                let config = BootloaderConfig::clone(shared);
                Arc::new(config.with_depot(DriverDepot::in_memory()))
            } else {
                Arc::clone(shared)
            };
            sim.clients
                .push(Bootloader::new(&sim.net, Addr::new(host, 1), config));
        }
        if spec.batched {
            sim.attach_aggregators();
        }
        sim
    }

    /// A fleet of `n_clients` bootloaders under `lifecycle` with
    /// `lease_ms` leases; `notify` opens dedicated channels (the push
    /// ablation).
    pub fn build_with_lifecycle(
        n_clients: usize,
        lease_ms: u64,
        notify: bool,
        driver_padding: usize,
        lifecycle: LifecyclePolicy,
    ) -> Self {
        Self::from_spec(SimSpec {
            notify,
            driver_padding,
            lifecycle,
            ..SimSpec::new(n_clients, lease_ms)
        })
    }

    /// A [`SimSpec::checked`] fleet whose clients open a coexistence
    /// window on upgrade when `hot_swap` is set.
    pub fn build_hotswap(n_clients: usize, lease_ms: u64, hot_swap: Option<SwapConfig>) -> Self {
        Self::from_spec(SimSpec {
            checked: true,
            hot_swap,
            ..SimSpec::new(n_clients, lease_ms)
        })
    }

    /// A [`SimSpec::checked`] and [`SimSpec::batched`] unzoned fleet (one
    /// aggregator): the shape the 10k-client rollout bench runs.
    pub fn build_rollout_batched(n_clients: usize, lease_ms: u64, driver_padding: usize) -> Self {
        Self::from_spec(SimSpec {
            driver_padding,
            checked: true,
            batched: true,
            ..SimSpec::new(n_clients, lease_ms)
        })
    }

    /// Fleet-wide hot-swap counters, summed over every client's
    /// [`drivolution_bootloader::BootStats::swap`].
    pub fn total_swap_stats(&self) -> SwapStats {
        let mut total = SwapStats::default();
        for c in &self.clients {
            let s = c.stats().swap;
            total.windows_opened += s.windows_opened;
            total.windows_completed += s.windows_completed;
            total.sessions_migrated += s.sessions_migrated;
            total.sessions_drained += s.sessions_drained;
            total.sessions_forced += s.sessions_forced;
            total.transactions_severed += s.transactions_severed;
            total.blackout_ticks += s.blackout_ticks;
            total.downgrades += s.downgrades;
        }
        total
    }

    /// Groups the fleet's clients by zone and launches one
    /// [`RenewalAggregator`] per zone, ticking at [`DEFAULT_POLL_EVERY`].
    fn attach_aggregators(&mut self) {
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<String, Vec<Arc<Bootloader>>> = BTreeMap::new();
        for c in &self.clients {
            let zone = self
                .net
                .zone_of(c.local_addr().host())
                .unwrap_or_else(|| "default".to_string());
            groups.entry(zone).or_default().push(c.clone());
        }
        for (zone, members) in groups {
            self.aggregators.push(RenewalAggregator::launch(
                &self.net,
                Addr::new(format!("agg-{zone}"), 1),
                self.drv_addr.clone(),
                &members,
                DEFAULT_POLL_EVERY,
            ));
        }
    }

    /// The per-zone renewal aggregators (empty on unbatched fleets).
    pub fn aggregators(&self) -> &[Arc<RenewalAggregator>] {
        &self.aggregators
    }

    /// The simulated network (clock, stats, faults).
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// The database URL the fleet's clients connect to.
    pub fn url(&self) -> &DbUrl {
        &self.url
    }

    /// The Drivolution server.
    pub fn server(&self) -> &Arc<DrivolutionServer> {
        &self.server
    }

    /// The address the Drivolution server is bound at.
    pub fn server_addr(&self) -> &Addr {
        &self.drv_addr
    }

    /// The client bootloaders.
    pub fn clients(&self) -> &[Arc<Bootloader>] {
        &self.clients
    }

    /// The per-zone depot mirrors (empty on an unzoned fleet).
    pub fn mirrors(&self) -> &[Arc<MirrorDepot>] {
        &self.mirrors
    }

    /// Per-mirror heartbeat-failure counters, read off each mirror's
    /// scheduler task. A mirror taken down by fault injection misses its
    /// beats and is quarantined exactly as before — but the failures now
    /// land in an operator-visible ledger instead of being discarded.
    pub fn mirror_heartbeat_failures(&self) -> Vec<(String, u64)> {
        self.mirrors
            .iter()
            .map(|m| {
                let errors = m.heartbeat_task().map(|t| t.stats().errors).unwrap_or(0);
                (m.location(), errors)
            })
            .collect()
    }

    fn total_mirror_failures(&self) -> u64 {
        self.mirror_heartbeat_failures()
            .iter()
            .map(|(_, n)| n)
            .sum()
    }

    fn total_polls(&self) -> u64 {
        self.clients.iter().map(|c| c.stats().polls).sum()
    }

    /// Installs every event of `schedule` as one-shot tasks on the
    /// fleet's scheduler, so faults flip on the same deterministic
    /// timeline as heartbeats and renewals. Returns the number of
    /// events installed.
    pub fn install_chaos(&self, schedule: &ChaosSchedule) -> usize {
        schedule.install(&self.net)
    }

    /// Distinct active-image digests across clients currently running
    /// `version`. A chaos run proves "zero wrong-byte installs" by
    /// asserting this collapses to exactly one digest at convergence.
    pub fn image_digests_on(&self, version: DriverVersion) -> std::collections::BTreeSet<u64> {
        self.clients
            .iter()
            .filter(|c| c.active_version() == Some(version))
            .filter_map(|c| c.active_image_digest())
            .collect()
    }

    /// Bootstraps every client (each downloads v1 once).
    pub fn bootstrap_all(&self) {
        for (i, c) in self.clients.iter().enumerate() {
            let props = ConnectProps::user("admin", "admin");
            // No `Result` to return it in (frozen signature): a client that
            // cannot bootstrap means the caller broke the world first.
            let conn = c.connect(&self.url, &props).unwrap_or_else(|e| {
                panic!("client {i} failed to bootstrap: {e}");
            });
            drop(conn); // connection closed; driver stays loaded
        }
    }

    /// Injects (or clears) the activation regression: [`SimSpec::checked`]
    /// clients fail their post-activation self-check for `version` from
    /// now on. Clients that already activated it are unaffected — the
    /// regression surfaces through the *next* wave's reports, exactly
    /// like a latent driver bug.
    pub fn inject_activation_fault(&self, version: Option<DriverVersion>) {
        *self.faulty_version.lock() = version;
    }

    /// Publishes driver `id` at `version` *alongside* the previous
    /// driver: both stay permitted (the new one under
    /// [`RenewPolicy::Upgrade`]), which is the precondition for a staged
    /// rollout — held-back and rolled-back clients must still be able to
    /// renew (and re-download) the prior version.
    pub fn publish_staged(&self, id: i64, version: DriverVersion, driver_padding: usize) {
        self.install_and_route(id, version, driver_padding, false);
    }

    /// Installs driver `id` and permits it under [`RenewPolicy::Upgrade`];
    /// with `revoke`, driver `id - 1` loses its permissions in between.
    fn install_and_route(&self, id: i64, version: DriverVersion, padding: usize, revoke: bool) {
        self.server
            .install_driver(&record(id, id as u16, version, padding))
            .expect("caller contract: `id` is unused");
        if revoke {
            self.server
                .store()
                .remove_permissions(DriverId(id - 1))
                .expect("a DELETE on the schema the server created");
        }
        self.server
            .add_rule(
                &PermissionRule::any(DriverId(id))
                    .with_lease_ms(self.lease_ms as i64)
                    .with_transfer(TransferMethod::Any)
                    .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit),
            )
            .expect("driver `id` was installed just above");
    }

    /// Partitions the fleet per `plan`, launches a
    /// [`RolloutOrchestrator`] driving `from → to` on the network's
    /// scheduler, and attaches it to the server so offers become
    /// version-targeted per wave membership.
    pub fn start_rollout(
        &self,
        from: DriverId,
        to: DriverId,
        plan: &RolloutPlan,
        config: RolloutConfig,
    ) -> Arc<RolloutOrchestrator> {
        let hosts: Vec<String> = self
            .clients
            .iter()
            .map(|c| c.local_addr().host().to_string())
            .collect();
        let ro = RolloutOrchestrator::launch(&self.net, "fleetdb", from, to, &hosts, plan, config);
        self.server.attach_rollout(ro.clone());
        ro
    }

    /// Publishes driver v2 and routes the fleet to it. With `push`, also
    /// notifies dedicated channels.
    pub fn publish_upgrade(&self, push: bool) {
        self.publish(2, DriverVersion::new(2, 0, 0), 0, push);
    }

    /// Publishes driver `id` at `version` (with `driver_padding` bytes
    /// of payload) and routes the fleet to it, revoking the previous
    /// driver's permissions. With `push`, also notifies dedicated
    /// channels.
    pub fn publish(&self, id: i64, version: DriverVersion, driver_padding: usize, push: bool) {
        self.install_and_route(id, version, driver_padding, true);
        if push {
            self.server.notify_upgrade("fleetdb");
        }
    }

    /// Fraction of clients running `version`.
    pub fn fraction_on(&self, version: DriverVersion) -> f64 {
        self.count_on(version) as f64 / self.clients.len().max(1) as f64
    }

    /// Number of clients running `version`.
    pub fn count_on(&self, version: DriverVersion) -> usize {
        self.clients
            .iter()
            .filter(|c| c.active_version() == Some(version))
            .count()
    }

    /// Pumps the scheduler in `step_ms` increments — client lifecycle
    /// tasks and mirror heartbeats all fire on their own
    /// registered cadence — until every client runs v2 or `max_ms`
    /// elapses. No manual poll or heartbeat call anywhere: the fleet's
    /// entire lifecycle is scheduler ticks.
    pub fn run_until_upgraded(&self, step_ms: u64, max_ms: u64) -> PropagationResult {
        self.run_until_on(DriverVersion::new(2, 0, 0), step_ms, max_ms)
    }

    /// As [`FleetSim::run_until_upgraded`] for an arbitrary target
    /// version — staged rollouts also converge *backwards* (onto the
    /// prior version after a halt), which this measures the same way.
    pub fn run_until_on(
        &self,
        target: DriverVersion,
        step_ms: u64,
        max_ms: u64,
    ) -> PropagationResult {
        self.pump(step_ms, max_ms, || {
            self.count_on(target) == self.clients.len()
        })
    }

    /// Runs `duration_ms` of steady-state lease maintenance (no upgrade)
    /// under the scheduler and reports the Drivolution-server traffic —
    /// the "higher traffic to the Drivolution Server" side of the §3.2
    /// tradeoff. `step_ms` is only the pump granularity; lifecycle
    /// cadence comes from the registered tasks.
    pub fn run_steady_state(&self, step_ms: u64, duration_ms: u64) -> PropagationResult {
        PropagationResult {
            time_to_full_upgrade_ms: duration_ms,
            ..self.pump(step_ms, duration_ms, || false)
        }
    }

    /// Runs the scheduler in `step_ms` increments until `done` holds or
    /// `max_ms` elapses, and reports what the run cost.
    fn pump(&self, step_ms: u64, max_ms: u64, done: impl Fn() -> bool) -> PropagationResult {
        let start = self.net.clock().now_ms();
        let base_stats = self.net.stats().for_addr(&self.drv_addr);
        let base_polls = self.total_polls();
        let base_failures = self.total_mirror_failures();
        loop {
            let now = self.net.clock().now_ms();
            if done() || now - start >= max_ms {
                break;
            }
            self.net.run_until((now + step_ms).min(start + max_ms));
        }
        let end_stats = self.net.stats().for_addr(&self.drv_addr);
        PropagationResult {
            time_to_full_upgrade_ms: self.net.clock().now_ms() - start,
            server_requests: end_stats.requests - base_stats.requests,
            server_bytes: (end_stats.bytes_in + end_stats.bytes_out)
                - (base_stats.bytes_in + base_stats.bytes_out),
            polls: self.total_polls() - base_polls,
            mirror_heartbeat_failures: self.total_mirror_failures() - base_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINUTE: u64 = 60_000;

    /// A zoned fleet on 10-minute leases, 1 ms same-zone and 25 ms
    /// cross-zone links.
    fn cdn(zones: &'static [&'static str], clients: usize) -> SimSpec {
        SimSpec {
            zones,
            same_zone_ms: 1,
            cross_zone_ms: 25,
            ..SimSpec::new(clients, 10 * MINUTE)
        }
    }

    #[test]
    fn fleet_bootstraps_and_upgrades_via_leases() {
        let sim = FleetSim::from_spec(SimSpec::new(5, 10 * MINUTE));
        sim.bootstrap_all();
        assert_eq!(sim.fraction_on(DriverVersion::new(1, 0, 0)), 1.0);
        sim.publish_upgrade(false);
        let r = sim.run_until_upgraded(MINUTE, 60 * MINUTE);
        assert_eq!(sim.fraction_on(DriverVersion::new(2, 0, 0)), 1.0);
        // Propagation bounded by one lease: the auto-renewal timers fire
        // inside each lease's renewal window.
        assert!(r.time_to_full_upgrade_ms <= 10 * MINUTE);
        assert!(r.server_requests >= 5, "every client re-requested");
        assert!(r.polls >= 5, "scheduler-fired maintenance was counted");
    }

    #[test]
    fn push_channel_upgrades_immediately() {
        let sim = FleetSim::from_spec(SimSpec {
            notify: true,
            ..SimSpec::new(5, 60 * MINUTE)
        });
        sim.bootstrap_all();
        sim.publish_upgrade(true);
        let r = sim.run_until_upgraded(MINUTE, 120 * MINUTE);
        // With push, the fleet converges on the first poll sweep — no
        // waiting for lease expiry.
        assert_eq!(sim.fraction_on(DriverVersion::new(2, 0, 0)), 1.0);
        assert!(r.time_to_full_upgrade_ms <= MINUTE);
    }

    #[test]
    fn cdn_fleet_upgrades_from_same_zone_mirrors() {
        let sim = FleetSim::from_spec(SimSpec {
            driver_padding: 64 * 1024,
            ..cdn(&["za", "zb", "zc"], 6)
        });
        assert_eq!(sim.mirrors().len(), 3);
        assert_eq!(sim.server().mirror_directory().len(), 3);
        sim.bootstrap_all();
        sim.publish(2, DriverVersion::new(2, 0, 0), 64 * 1024, false);
        sim.run_until_upgraded(MINUTE, 60 * MINUTE);
        assert_eq!(sim.fraction_on(DriverVersion::new(2, 0, 0)), 1.0);
        // Every delta chunk travelled inside the client's own zone, and
        // the mirrors (not the primary) carried the bulk traffic.
        let (same, cross) = sim.clients().iter().fold((0u64, 0u64), |(s, c), b| {
            let st = b.stats();
            (s + st.same_zone_chunk_bytes, c + st.cross_zone_chunk_bytes)
        });
        assert!(same > 0, "no chunk bytes accounted");
        assert_eq!(cross, 0, "cross-zone chunk bytes on a healthy fleet");
        assert!(sim.mirrors().iter().all(|m| m.stats().chunks_served > 0));
        assert_eq!(
            sim.clients()
                .iter()
                .map(|c| c.stats().mirror_fallbacks)
                .sum::<u64>(),
            0
        );
    }

    #[test]
    fn dead_mirror_heartbeat_failures_surface_in_the_report() {
        // Regression: the old hand-cranked heartbeat_mirrors() swallowed
        // every error (`let _ = m.heartbeat()`), so a fleet report could
        // not tell a healthy mirror tier from one silently failing. The
        // task error counters must surface them per mirror.
        let sim = FleetSim::from_spec(SimSpec {
            driver_padding: 16 * 1024,
            ..cdn(&["za", "zb"], 2)
        });
        sim.bootstrap_all();
        sim.net().with_faults(|f| f.take_down("mirror-za"));
        let r = sim.run_steady_state(MINUTE, 2 * MINUTE);
        assert!(
            r.mirror_heartbeat_failures > 0,
            "failures must not be swallowed"
        );
        let per_mirror = sim.mirror_heartbeat_failures();
        let dead = per_mirror
            .iter()
            .find(|(loc, _)| loc == "mirror-za:1071")
            .unwrap();
        let live = per_mirror
            .iter()
            .find(|(loc, _)| loc == "mirror-zb:1071")
            .unwrap();
        assert!(dead.1 > 0, "dead mirror's failures attributed to it");
        assert_eq!(live.1, 0, "healthy mirror shows a clean ledger");
        // And the failure is identifiable, not just countable.
        let task = sim.mirrors()[0].heartbeat_task().unwrap();
        assert!(task.last_error().is_some());
    }

    #[test]
    fn staged_rollout_completes_wave_by_wave() {
        use drivolution_server::RolloutPhase;
        let sim = FleetSim::from_spec(SimSpec {
            checked: true,
            ..SimSpec::new(10, 5 * MINUTE)
        });
        sim.bootstrap_all();
        sim.publish_staged(2, DriverVersion::new(2, 0, 0), 0);
        let ro = sim.start_rollout(
            DriverId(1),
            DriverId(2),
            &RolloutPlan {
                canary: 1,
                wave_pcts: vec![20, 30],
            },
            RolloutConfig {
                evaluate_every: Duration::from_secs(30),
                observe: Duration::from_secs(8 * 60),
                min_reports: 1,
                ..RolloutConfig::default()
            },
        );
        let r = sim.run_until_on(DriverVersion::new(2, 0, 0), MINUTE, 4 * 60 * MINUTE);
        assert_eq!(sim.count_on(DriverVersion::new(2, 0, 0)), 10);
        // The last wave still has to sit out its observation window
        // before its gate can pass.
        sim.run_steady_state(MINUTE, 10 * MINUTE);
        let st = ro.status();
        assert_eq!(st.phase, RolloutPhase::Complete);
        // Waves opened strictly in order, one observation window apart.
        let opens: Vec<u64> = st.waves.iter().map(|w| w.opened_at_ms.unwrap()).collect();
        assert!(opens.windows(2).all(|w| w[0] < w[1]), "{opens:?}");
        assert!(r.time_to_full_upgrade_ms > 0);
        // Every wave's members reported successful activation.
        assert_eq!(st.waves.iter().map(|w| w.ok).sum::<usize>(), 10);
        assert_eq!(st.waves.iter().map(|w| w.err).sum::<usize>(), 0);
    }

    #[test]
    fn batched_rollout_converges_with_a_fraction_of_the_frames() {
        use drivolution_server::RolloutPhase;
        let sim = FleetSim::build_rollout_batched(10, 5 * MINUTE, 0);
        assert_eq!(sim.aggregators().len(), 1, "unzoned fleet, one batcher");
        sim.bootstrap_all();
        sim.publish_staged(2, DriverVersion::new(2, 0, 0), 0);
        let ro = sim.start_rollout(
            DriverId(1),
            DriverId(2),
            &RolloutPlan {
                canary: 1,
                wave_pcts: vec![20, 30],
            },
            RolloutConfig {
                evaluate_every: Duration::from_secs(30),
                observe: Duration::from_secs(8 * 60),
                min_reports: 1,
                ..RolloutConfig::default()
            },
        );
        sim.run_until_on(DriverVersion::new(2, 0, 0), MINUTE, 4 * 60 * MINUTE);
        assert_eq!(sim.count_on(DriverVersion::new(2, 0, 0)), 10);
        sim.run_steady_state(MINUTE, 10 * MINUTE);
        assert_eq!(ro.status().phase, RolloutPhase::Complete);

        // The renewals travelled as coalesced batch frames, not
        // per-client requests.
        let agg = sim.aggregators()[0].stats();
        assert!(agg.batch_frames > 0, "{agg:?}");
        assert!(
            agg.coalesced_renewals > agg.batch_frames,
            "coalescing happened: {agg:?}"
        );
        let srv = sim.server().stats();
        assert_eq!(srv.batch_frames, agg.batch_frames);
        assert_eq!(srv.batched_renewals, agg.coalesced_renewals);
        assert_eq!(agg.failed_batches, 0);
    }

    #[test]
    fn a_failed_batch_is_a_failed_renewal_for_every_contributor() {
        let sim = FleetSim::build_rollout_batched(6, 5 * MINUTE, 0);
        sim.bootstrap_all();
        let agg = &sim.aggregators()[0];
        sim.net().clock().advance_ms(5 * MINUTE);
        sim.net().with_faults(|f| f.take_down("db1"));
        assert_eq!(agg.tick(), 6);
        sim.net().with_faults(|f| f.restore("db1"));
        assert_eq!(agg.stats().failed_batches, 1);
        for c in sim.clients() {
            assert_eq!(c.stats().failed_renewals, 1);
        }
        // Every contributor still owes its renewal and pays it next tick.
        assert_eq!(agg.tick(), 6);
        for c in sim.clients() {
            assert_eq!(c.stats().renewals, 1);
        }
        assert_eq!(agg.tick(), 0);
    }

    #[test]
    fn injected_regression_halts_and_rolls_the_fleet_back() {
        use drivolution_server::RolloutPhase;
        let sim = FleetSim::from_spec(SimSpec {
            checked: true,
            ..SimSpec::new(10, 5 * MINUTE)
        });
        sim.bootstrap_all();
        sim.publish_staged(2, DriverVersion::new(2, 0, 0), 0);
        // The regression is live from the start: the canary is the blast
        // radius.
        sim.inject_activation_fault(Some(DriverVersion::new(2, 0, 0)));
        let ro = sim.start_rollout(
            DriverId(1),
            DriverId(2),
            &RolloutPlan {
                canary: 1,
                wave_pcts: vec![20, 30],
            },
            RolloutConfig {
                evaluate_every: Duration::from_secs(30),
                observe: Duration::from_secs(8 * 60),
                min_reports: 1,
                ..RolloutConfig::default()
            },
        );
        // Pump: the canary upgrades at its next renewal, fails its
        // self-check, the gate trips, and the canary rolls back at the
        // renewal after that.
        sim.run_steady_state(MINUTE, 30 * MINUTE);
        let st = ro.status();
        assert!(
            matches!(st.phase, RolloutPhase::RolledBack { failed_wave: 0 }),
            "{st:?}"
        );
        assert_eq!(
            sim.count_on(DriverVersion::new(1, 0, 0)),
            10,
            "no stranded clients"
        );
        assert_eq!(sim.count_on(DriverVersion::new(2, 0, 0)), 0);
        // Only the canary ever activated the bad driver.
        assert_eq!(st.waves[0].err, 1);
        assert_eq!(st.waves.iter().map(|w| w.ok + w.err).sum::<usize>(), 1);
    }

    #[test]
    fn hot_swap_upgrade_is_invisible_to_steady_load() {
        let sim = FleetSim::build_hotswap(6, 5 * MINUTE, Some(SwapConfig::default()));
        let load = crate::load::SteadyLoad::launch(
            sim.net(),
            sim.clients(),
            sim.url(),
            Duration::from_secs(5),
            3,
        );
        load.open_all().unwrap();
        sim.run_steady_state(10_000, 2 * MINUTE);
        sim.publish_upgrade(false);
        sim.run_until_on(DriverVersion::new(2, 0, 0), 10_000, 30 * MINUTE);
        assert_eq!(sim.count_on(DriverVersion::new(2, 0, 0)), 6);
        // Let every coexistence window settle.
        sim.run_steady_state(10_000, 2 * MINUTE);
        let st = load.stats();
        assert!(st.committed > 0, "{st:?}");
        assert_eq!(st.dropped_queries, 0, "{st:?}");
        assert_eq!(st.severed_transactions, 0, "{st:?}");
        assert_eq!(st.reconnects, 0, "{st:?}");
        let swap = sim.total_swap_stats();
        assert_eq!(swap.windows_opened, 6, "{swap:?}");
        assert_eq!(swap.windows_completed, 6, "{swap:?}");
        assert!(swap.sessions_migrated >= 6, "{swap:?}");
        assert_eq!(swap.sessions_forced, 0, "{swap:?}");
        assert_eq!(swap.transactions_severed, 0, "{swap:?}");
    }

    #[test]
    fn baseline_upgrade_without_hot_swap_drops_queries() {
        let sim = FleetSim::build_hotswap(6, 5 * MINUTE, None);
        let load = crate::load::SteadyLoad::launch(
            sim.net(),
            sim.clients(),
            sim.url(),
            Duration::from_secs(5),
            3,
        );
        load.open_all().unwrap();
        sim.run_steady_state(10_000, 2 * MINUTE);
        sim.publish_upgrade(false);
        sim.run_until_on(DriverVersion::new(2, 0, 0), 10_000, 30 * MINUTE);
        assert_eq!(sim.count_on(DriverVersion::new(2, 0, 0)), 6);
        sim.run_steady_state(10_000, 2 * MINUTE);
        let st = load.stats();
        // AFTER_COMMIT without a coexistence window force-closes idle
        // sessions at activation: the application sees it.
        assert!(st.dropped_queries > 0, "{st:?}");
        assert!(st.reconnects > 0, "{st:?}");
        assert_eq!(sim.total_swap_stats(), SwapStats::default());
    }

    #[test]
    fn shorter_leases_mean_more_server_traffic() {
        let short = FleetSim::from_spec(SimSpec::new(4, 5 * MINUTE));
        short.bootstrap_all();
        let r_short = short.run_steady_state(MINUTE, 120 * MINUTE);

        let long = FleetSim::from_spec(SimSpec::new(4, 60 * MINUTE));
        long.bootstrap_all();
        let r_long = long.run_steady_state(MINUTE, 120 * MINUTE);

        assert!(
            r_short.server_requests > r_long.server_requests * 2,
            "short={} long={}",
            r_short.server_requests,
            r_long.server_requests
        );
    }

    #[test]
    fn an_empty_fleet_has_converged_before_the_first_step() {
        // Regression: the stop predicate read `fraction_on(target) < 1.0`,
        // and an empty fleet's fraction is 0, so it pumped to `max_ms`.
        let sim = FleetSim::from_spec(SimSpec::new(0, 10 * MINUTE));
        sim.publish_upgrade(false);
        let r = sim.run_until_upgraded(MINUTE, 60 * MINUTE);
        assert_eq!(r.time_to_full_upgrade_ms, 0);
    }

    #[test]
    fn a_zoned_checked_batched_fleet_batches_per_zone_and_stays_local() {
        let sim = FleetSim::from_spec(SimSpec {
            driver_padding: 32 * 1024,
            checked: true,
            batched: true,
            ..cdn(&["za", "zb"], 6)
        });
        // Registration order is server, mirrors, aggregators; batched
        // clients are manual and register nothing.
        assert_eq!(
            sim.net().scheduler().task_names(),
            [
                "server-maintenance:db1",
                "mirror-heartbeat mirror-za:1071",
                "mirror-heartbeat mirror-zb:1071",
                "renew-aggregator:agg-za",
                "renew-aggregator:agg-zb",
            ]
        );
        assert_eq!(sim.aggregators().len(), 2, "one batcher per zone");
        sim.bootstrap_all();
        sim.publish(2, DriverVersion::new(2, 0, 0), 32 * 1024, false);
        sim.run_until_upgraded(MINUTE, 60 * MINUTE);
        assert_eq!(sim.count_on(DriverVersion::new(2, 0, 0)), 6);
        for agg in sim.aggregators() {
            assert!(agg.stats().batch_frames >= 1, "{:?}", agg.stats());
        }
        let (same, cross) = sim.clients().iter().fold((0u64, 0u64), |(s, c), b| {
            let st = b.stats();
            (s + st.same_zone_chunk_bytes, c + st.cross_zone_chunk_bytes)
        });
        assert!(same > 0, "no chunk bytes accounted");
        assert_eq!(cross, 0, "cross-zone chunk bytes on a healthy fleet");
        // Each zone assembled v2 once, from its own mirror: a cache shared
        // across zones would let every zb client adopt za's copy.
        for zone in ["za", "zb"] {
            let assemblers = sim.clients().iter().filter(|b| {
                let st = b.stats();
                sim.net().zone_of(b.local_addr().host()).as_deref() == Some(zone)
                    && st.delta_downloads == 1
                    && st.shared_image_reuses == 0
            });
            assert_eq!(assemblers.count(), 1, "zone {zone}");
        }
    }
}
