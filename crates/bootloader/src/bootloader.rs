//! The Drivolution bootloader (paper §3.1.1): a tiny interceptor that
//! downloads the right driver from a Drivolution server at `connect`
//! time, tracks its lease, and hot-swaps driver versions transparently.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use netsim::{Addr, Clock, Network, Pipe, TaskControl, TaskHandle};

use driverkit::{
    ConnectProps, DbUrl, DkError, DkResult, DriverRegistry, DriverVm, Namespace, NamespaceId,
};

use drivolution_core::proto::{DrvMsg, DrvOffer, DrvRequest, RequestKind};
use drivolution_core::{DriverVersion, DrvError, ExpirationPolicy};

use crate::config::{BootloaderConfig, ServerLocator};
use crate::fetch::MirrorFetchStats;
use crate::managed::ManagedConnection;
use crate::swap::{DrainWindow, SwapStats};
use crate::tracker::ConnectionTracker;

/// Cadence of the session-maintenance sweep (tracker prune + zombie
/// reap) — the client-side analog of the server's failure-detection
/// cadence.
const MAINTAIN_EVERY: Duration = Duration::from_secs(30);

/// Counters exposed for tests and benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BootStats {
    /// Driver files downloaded (bootstrap + upgrades + extensions).
    pub downloads: u64,
    /// Same-driver lease renewals.
    pub renewals: u64,
    /// Driver upgrades applied.
    pub upgrades: u64,
    /// Renewal attempts that failed at the network level (driver kept).
    pub failed_renewals: u64,
    /// Extension packages fetched lazily.
    pub extension_fetches: u64,
    /// Offers satisfied from the depot with zero transfer.
    pub revalidations: u64,
    /// Drivers installed via chunked delta instead of a full download.
    pub delta_downloads: u64,
    /// Driver bytes that never travelled thanks to the depot
    /// (revalidated images plus reused delta chunks).
    pub bytes_saved: u64,
    /// Delta downloads whose chunks came from the *primary* because
    /// every offered mirror candidate failed. Draining from a dead
    /// mirror to the next candidate is not a fallback.
    pub mirror_fallbacks: u64,
    /// Delta chunk sets successfully fetched from a mirror replica.
    pub mirror_chunk_fetches: u64,
    /// Upgrades that adopted a zone peer's already-assembled image
    /// (re-verified, zero fetch, zero assembly).
    pub shared_image_reuses: u64,
    /// Delta chunk payload bytes fetched from a source in the client's
    /// own zone (or in an unzoned topology).
    pub same_zone_chunk_bytes: u64,
    /// Delta chunk payload bytes fetched across zones.
    pub cross_zone_chunk_bytes: u64,
    /// Maintenance passes executed (manual [`Bootloader::poll`] calls
    /// plus scheduler-task firings).
    pub polls: u64,
    /// `MIRROR_COMPLAINT`s filed after a mirror served bytes that failed
    /// digest/checksum verification.
    pub mirror_complaints: u64,
    /// `ACTIVATION_REPORT`s sent after upgrades (when enabled).
    pub activation_reports: u64,
    /// Reports that carried a failure verdict (failed self-check or
    /// failed install).
    pub activation_failures: u64,
    /// Hot-swap coexistence-window counters (sessions drained / forced /
    /// migrated, blackout ticks, downgrades). All zero unless a
    /// [`crate::SwapConfig`] is installed.
    pub swap: SwapStats,
}

/// Outcome of one maintenance pass ([`Bootloader::poll`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PollOutcome {
    /// Nothing to do: no driver loaded or lease still valid.
    Idle,
    /// Lease renewed for the same driver.
    Renewed,
    /// A new driver version was installed.
    Upgraded {
        /// Previous version.
        from: DriverVersion,
        /// New version.
        to: DriverVersion,
    },
    /// The driver was revoked; new connections are blocked.
    Revoked,
    /// Renewal failed at the network level; current driver kept
    /// ("the bootloader keeps its current implementation until the
    /// Drivolution server is restarted", §4.1.3).
    KeptAfterFailure,
}

/// Cap on each undrained sample list; the oldest half is shed at it.
pub(crate) const MAX_SAMPLES: usize = 4096;

/// Everything mutable about a bootloader, behind its one lock.
#[derive(Default)]
pub(crate) struct BootState {
    pub(crate) server: Option<Addr>,
    pub(crate) pipe: Option<Pipe>,
    pub(crate) revoked: bool,
    /// A renewal exchange failed: the next one goes out whatever the
    /// lease says, as if a pushed notice had just arrived, so a notice
    /// the failed renewal consumed is not lost. Cleared by the next
    /// exchange that completes.
    pub(crate) renew_owed: bool,
    /// URL and properties of the last `connect`/`bootstrap`: the
    /// identity every later exchange with the server is made under.
    pub(crate) context: Option<(DbUrl, ConnectProps)>,
    pub(crate) stats: BootStats,
    pub(crate) mirror_fetch: HashMap<String, MirrorFetchStats>,
    pub(crate) fetch_latencies: Vec<u64>,
    pub(crate) renewal_times: Vec<u64>,
    pub(crate) tasks: LifecycleTasks,
    /// Open hot-swap coexistence windows.
    pub(crate) windows: Vec<DrainWindow>,
}

/// Appends `sample`, shedding the oldest half at [`MAX_SAMPLES`].
pub(crate) fn push_sample(samples: &mut Vec<u64>, sample: u64) {
    if samples.len() >= MAX_SAMPLES {
        samples.drain(..MAX_SAMPLES / 2);
    }
    samples.push(sample);
}

/// The client-side bootloader. One per application; create with
/// [`Bootloader::new`] and keep behind the returned [`Arc`].
pub struct Bootloader {
    pub(crate) net: Network,
    pub(crate) local: Addr,
    pub(crate) config: BootloaderConfig,
    pub(crate) vm: DriverVm,
    pub(crate) registry: DriverRegistry,
    pub(crate) tracker: ConnectionTracker,
    pub(crate) clock: Clock,
    pub(crate) state: Mutex<BootState>,
}

#[derive(Default)]
pub(crate) struct LifecycleTasks {
    /// Periodic upgrade-poll task (when `LifecyclePolicy::poll_every`).
    pub(crate) poll: Option<TaskHandle>,
    /// One-shot lease auto-renewal timer, re-armed at every lease grant.
    pub(crate) lease: Option<TaskHandle>,
    /// Periodic session-maintenance sweep (tracker prune + zombie reap),
    /// registered for self-driving and swap-enabled bootloaders.
    maintenance: Option<TaskHandle>,
    /// Hot-swap tick (swap-enabled bootloaders), dormant until a swap.
    pub(crate) swap: Option<TaskHandle>,
    /// Renew-due instant the lease timer is currently armed for. The
    /// spread jitter is sampled once per lease grant; re-running
    /// maintenance against the same lease must not re-sample it (the
    /// timer would random-walk inside the margin and could starve).
    pub(crate) lease_armed_for: Option<u64>,
}

impl std::fmt::Debug for Bootloader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bootloader")
            .field("local", &self.local)
            .field("loaded", &self.registry.len())
            .finish()
    }
}

impl Drop for Bootloader {
    /// Cancels the lifecycle tasks so a dropped bootloader does not
    /// leave entries in the scheduler's table — the dormant lease timer
    /// in particular would otherwise linger forever, since a task that
    /// never fires never notices its weak reference died.
    fn drop(&mut self) {
        let tasks = &self.state.lock().tasks;
        for task in [&tasks.poll, &tasks.lease, &tasks.maintenance, &tasks.swap] {
            task.iter().for_each(TaskHandle::cancel);
        }
    }
}

impl Bootloader {
    /// Creates a bootloader for an application at `local` and registers
    /// its lifecycle tasks (per `config.lifecycle`) on the network's
    /// scheduler.
    pub fn new(net: &Network, local: Addr, config: BootloaderConfig) -> Arc<Self> {
        let vm = DriverVm::new(net.clone(), local.clone());
        let boot = Arc::new(Bootloader {
            net: net.clone(),
            local,
            config,
            vm,
            registry: DriverRegistry::new(),
            tracker: ConnectionTracker::new(),
            clock: net.clock().clone(),
            state: Mutex::new(BootState::default()),
        });
        boot.register_lifecycle();
        boot
    }

    /// Registers the upgrade-poll task, the (dormant until a lease is
    /// granted) auto-renewal timer, the session sweep and the hot-swap
    /// tick. Each holds only a weak reference: dropping the bootloader
    /// retires its tasks on their next firing.
    fn register_lifecycle(self: &Arc<Self>) {
        let policy = self.config.lifecycle;
        let sched = self.net.scheduler();
        let mut tasks = LifecycleTasks::default();
        if let Some(every) = policy.poll_every {
            let poll = sched.every(
                every,
                policy.poll_jitter,
                format!("upgrade-poll {}", self.local),
                self.task(Bootloader::poll_tick),
            );
            poll.sleep_until(u64::MAX); // no driver to poll for yet
            tasks.poll = Some(poll);
        }
        if policy.auto_renew {
            let name = format!("lease-renewal {}", self.local);
            tasks.lease = Some(sched.dormant(name, self.task(Bootloader::poll_tick)));
        }
        // Session maintenance (tracker prune + zombie reap) rides the
        // same cadence idea as the server's failure detection: registered
        // for every self-driving or swap-enabled bootloader, so closed
        // sessions leave the tracking table without anybody having to
        // remember to call `prune`. It sleeps while nothing is tracked.
        if policy.poll_every.is_some() || self.config.swap.is_some() {
            let sweep = sched.every(
                MAINTAIN_EVERY,
                Duration::ZERO,
                format!("session-maintenance {}", self.local),
                self.task(Bootloader::sweep_tick),
            );
            sweep.sleep_until(u64::MAX);
            tasks.maintenance = Some(sweep);
        }
        if self.config.swap.is_some() {
            let name = format!("hot-swap {}", self.local);
            let tick = self.task(|boot| {
                boot.swap_tick();
                Ok(TaskControl::Continue)
            });
            tasks.swap = Some(sched.dormant(name, tick));
        }
        self.state.lock().tasks = tasks;
    }

    /// A scheduler task body running `run` against this bootloader. It
    /// holds only a weak reference and retires itself once the
    /// bootloader is dropped.
    pub(crate) fn task(
        self: &Arc<Self>,
        run: fn(&Arc<Bootloader>) -> netsim::TaskResult,
    ) -> impl Fn() -> netsim::TaskResult {
        let me = Arc::downgrade(self);
        move || match me.upgrade() {
            Some(boot) => run(&boot),
            None => Ok(TaskControl::Done),
        }
    }

    /// One scheduler-driven maintenance pass. Renewal failures surface
    /// as task errors so fleets can read per-client failure counters off
    /// the handles.
    fn poll_tick(self: &Arc<Self>) -> netsim::TaskResult {
        match self.poll() {
            PollOutcome::KeptAfterFailure => Err("renewal failed; driver kept (§4.1.3)".into()),
            _ => Ok(TaskControl::Continue),
        }
    }

    /// One session sweep; once nothing is tracked, asleep until `connect`.
    fn sweep_tick(self: &Arc<Self>) -> netsim::TaskResult {
        self.tracker.sweep();
        if let (0, Some(sweep)) = (self.tracker.tracked_len(), self.maintenance_task()) {
            sweep.sleep_until(u64::MAX);
        }
        Ok(TaskControl::Continue)
    }

    /// Handle to the lease auto-renewal timer, if auto-renewal is
    /// enabled. Dormant until the first lease is granted.
    pub fn lease_task(&self) -> Option<TaskHandle> {
        self.state.lock().tasks.lease.clone()
    }

    /// Handle to the periodic session-maintenance sweep, if registered
    /// (self-driving or swap-enabled bootloaders).
    pub fn maintenance_task(&self) -> Option<TaskHandle> {
        self.state.lock().tasks.maintenance.clone()
    }

    /// The driver VM, exposed so middleware can register extra flavor
    /// factories (the cluster driver).
    pub fn vm(&self) -> &DriverVm {
        &self.vm
    }

    /// The namespace registry (diagnostics).
    pub fn registry(&self) -> &DriverRegistry {
        &self.registry
    }

    /// The connection tracker (diagnostics).
    pub fn tracker(&self) -> &ConnectionTracker {
        &self.tracker
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BootStats {
        self.state.lock().stats
    }

    /// The client's own network address.
    pub fn local_addr(&self) -> &Addr {
        &self.local
    }

    /// The zone this client's machine is placed in, if any.
    pub fn zone(&self) -> Option<String> {
        self.net.zone_of(self.local.host())
    }

    /// Version of the driver serving new connections, if any.
    pub fn active_version(&self) -> Option<DriverVersion> {
        self.registry.active().map(|ns| ns.image.version)
    }

    /// Content digest of the active driver's image, if any. Chaos
    /// harnesses compare this against the published image to prove no
    /// corrupted bytes were ever installed.
    pub fn active_image_digest(&self) -> Option<u64> {
        self.registry.active().map(|ns| ns.image.digest())
    }

    /// Whether the driver was revoked (new connections are refused).
    pub fn is_revoked(&self) -> bool {
        self.state.lock().revoked
    }

    // --- the intercepted connect (§3.1.1) -------------------------------

    /// Opens a connection, transparently downloading/renewing/upgrading
    /// the driver first. This is the single API call the bootloader
    /// intercepts.
    ///
    /// # Errors
    ///
    /// Drivolution errors (no driver, permission, revoked) as
    /// [`DkError::Drv`]; driver connect errors as returned by the driver.
    pub fn connect(
        self: &Arc<Self>,
        url: &DbUrl,
        props: &ConnectProps,
    ) -> DkResult<ManagedConnection> {
        // Remember identity for renewals, then run lease maintenance.
        self.remember(url, props);
        let _ = self.poll();
        if self.state.lock().revoked {
            return Err(DkError::Drv(DrvError::Policy(
                "driver revoked and no replacement available; new connections are blocked".into(),
            )));
        }
        let ns = match self.registry.active() {
            Some(ns) => ns,
            None => self.bootstrap(url, props)?,
        };
        let merged = self.merge_props(&ns, props);
        let inner = ns.driver.connect(url, &merged)?;
        let state = self.tracker.register(inner, ns.id);
        self.maintenance_task().iter().for_each(TaskHandle::wake);
        Ok(ManagedConnection::new(state, Arc::clone(self)))
    }

    fn remember(&self, url: &DbUrl, props: &ConnectProps) {
        self.state.lock().context = Some((url.clone(), props.clone()));
    }

    /// The connection context; `None` before the first `connect`.
    pub(crate) fn context(&self) -> Option<(DbUrl, ConnectProps)> {
        self.state.lock().context.clone()
    }

    fn merge_props(&self, ns: &Namespace, props: &ConnectProps) -> ConnectProps {
        let mut merged = props.clone();
        for (k, v) in &ns.image.default_options {
            merged.options.entry(k.clone()).or_insert_with(|| v.clone());
        }
        // Server-enforced options override application settings (§3.3:
        // options "can be given to instruct the bootloader to enforce
        // particular settings at driver loading time").
        for (k, v) in ns.options.iter() {
            if k == "locale" {
                merged.locale = Some(v.clone());
            }
            merged.options.insert(k.clone(), v.clone());
        }
        merged
    }

    // --- server interaction ---------------------------------------------

    pub(crate) fn build_request(
        &self,
        kind: RequestKind,
        url: &DbUrl,
        props: &ConnectProps,
    ) -> DrvRequest {
        DrvRequest {
            kind,
            database: url.database().to_string(),
            user: props.user.clone(),
            password: Some(props.password.clone()),
            api_name: self.config.api_name.clone(),
            api_version: self.config.api_version,
            client_platform: self.config.client_platform.clone(),
            preferred_format: self.config.preferred_format,
            preferred_version: self.config.preferred_version,
            transfer_method: self.config.transfer_method,
            options: {
                let mut opts = self.config.request_options.clone();
                if let Some(l) = &props.locale {
                    if !opts.iter().any(|(k, _)| k == "locale") {
                        opts.push(("locale".to_string(), l.clone()));
                    }
                }
                opts
            },
            have: self
                .config
                .depot
                .as_ref()
                .and_then(|d| d.have_summary(url.database())),
            zone: self.zone(),
        }
    }

    fn candidate_servers(&self, url: &DbUrl) -> DkResult<Vec<Addr>> {
        match &self.config.locator {
            ServerLocator::Fixed(list) => Ok(list.clone()),
            ServerLocator::SameHost { port } => {
                Ok(url.hosts().iter().map(|h| h.with_port(*port)).collect())
            }
            ServerLocator::Discover { port } => {
                // DRIVOLUTION_DISCOVER: broadcast, collect offers, then
                // unicast to an answering server (§3.1).
                let props = self.context().map(|(_, props)| props).unwrap_or_default();
                let req = self.build_request(RequestKind::Bootstrap, url, &props);
                let replies =
                    self.net
                        .broadcast(&self.local, *port, DrvMsg::Discover(req).encode());
                let mut servers = Vec::new();
                for (addr, raw) in replies {
                    if let Ok(DrvMsg::Offer(_)) = DrvMsg::decode(raw) {
                        servers.push(addr);
                    }
                }
                if servers.is_empty() {
                    return Err(DkError::Drv(DrvError::Net(format!(
                        "no drivolution server answered discovery on port {port}"
                    ))));
                }
                Ok(servers)
            }
        }
    }

    /// Sends `msg` to the first reachable candidate server. Network-level
    /// failures try the next server (controller failover, §5.3.2);
    /// application-level errors are authoritative and returned.
    pub(crate) fn exchange(&self, url: &DbUrl, msg: DrvMsg) -> DkResult<(Addr, DrvMsg)> {
        let preferred: Vec<Addr> = {
            let st = self.state.lock();
            st.server.iter().cloned().collect()
        };
        let mut candidates = preferred;
        for s in self.candidate_servers(url)? {
            if !candidates.contains(&s) {
                candidates.push(s);
            }
        }
        let mut last_net_err = None;
        for server in candidates {
            match self.net.request(&self.local, &server, msg.encode()) {
                Ok(raw) => {
                    let reply = DrvMsg::decode(raw).map_err(DkError::Drv)?;
                    return Ok((server, reply));
                }
                Err(e) => last_net_err = Some(e),
            }
        }
        Err(DkError::Drv(DrvError::Net(format!(
            "no drivolution server reachable: {}",
            last_net_err
                .map(|e| e.to_string())
                .unwrap_or_else(|| "no candidates".to_string())
        ))))
    }

    /// Performs the cold bootstrap (Table 3): request → offer → file →
    /// decode → load.
    ///
    /// # Errors
    ///
    /// Server errors, transfer failures, signature/certificate rejections.
    pub fn bootstrap(&self, url: &DbUrl, props: &ConnectProps) -> DkResult<Namespace> {
        // Remember identity so later polls can renew even when the
        // bootstrap was driven directly rather than through `connect`.
        self.remember(url, props);
        let req = self.build_request(RequestKind::Bootstrap, url, props);
        let (server, reply) = self.exchange(url, DrvMsg::Request(req))?;
        let offer = expect_offer(reply, "bootstrap")?;
        let ns_id = self.install_offer(&server, &offer)?;
        self.registry.activate(ns_id)?;
        {
            let mut st = self.state.lock();
            st.server = Some(server.clone());
            st.revoked = false;
            if self.config.open_notify_channel && st.pipe.is_none() {
                if let Ok(pipe) = self.net.connect_pipe(&self.local, &server) {
                    st.pipe = Some(pipe);
                }
            }
        }
        self.sync_lease_timer();
        self.registry
            .get(ns_id)
            .ok_or_else(|| DkError::Closed("namespace vanished".into()))
    }

    /// Retires `ns`, runs the expiration-policy ladder over its sessions
    /// and unloads it once drained — the tail of every upgrade,
    /// revocation and release.
    pub(crate) fn expire_sessions(&self, ns: NamespaceId, policy: ExpirationPolicy, reason: &str) {
        self.registry.retire(ns);
        self.tracker.escalate(ns, policy, reason);
        self.maybe_unload(ns);
    }

    /// Unloads `ns` if it is retired and drained.
    pub(crate) fn maybe_unload(&self, ns: NamespaceId) {
        self.tracker.prune();
        if let Some(n) = self.registry.get(ns) {
            if n.retired && self.tracker.drained(ns) {
                let _ = self.registry.unload(ns);
            }
        }
    }

    // --- extensions (§5.4.1) and licenses (§5.4.2) -----------------------

    /// Fetches an extension package for the active driver and switches to
    /// the enriched driver.
    ///
    /// # Errors
    ///
    /// Server errors (unknown package) and transfer failures.
    pub fn fetch_extension(self: &Arc<Self>, name: &str) -> DkResult<()> {
        let ns = self
            .registry
            .active()
            .ok_or_else(|| DkError::Closed("no active driver".into()))?;
        let (url, props) = self.context().ok_or_else(no_context)?;
        let req = self.build_request(
            RequestKind::Extension {
                base: ns.driver_id,
                name: name.to_string(),
            },
            &url,
            &props,
        );
        let (server, reply) = self.exchange(&url, DrvMsg::Request(req))?;
        let offer = expect_offer(reply, "extension")?;
        let new_ns = self.install_offer(&server, &offer)?;
        self.registry.activate(new_ns)?;
        // Old connections keep working (extension fetch is additive).
        self.state.lock().stats.extension_fetches += 1;
        self.sync_lease_timer();
        Ok(())
    }

    /// Whether lazy extension fetch is enabled.
    pub(crate) fn lazy_extensions(&self) -> bool {
        self.config.lazy_extension_fetch
    }

    /// Reconnects a managed connection on the (possibly new) active
    /// driver; used by lazy extension fetch.
    pub(crate) fn reconnect(&self) -> DkResult<(Box<dyn driverkit::Connection>, NamespaceId)> {
        let ns = self
            .registry
            .active()
            .ok_or_else(|| DkError::Closed("no active driver".into()))?;
        let (url, props) = self.context().ok_or_else(no_context)?;
        let merged = self.merge_props(&ns, &props);
        let inner = ns.driver.connect(&url, &merged)?;
        Ok((inner, ns.id))
    }

    /// Gives the driver lease back to the server (license return, §5.4.2)
    /// and unloads the driver locally.
    ///
    /// # Errors
    ///
    /// Network failures reaching the server.
    pub fn release_driver(self: &Arc<Self>) -> DkResult<()> {
        let Some(ns) = self.registry.active() else {
            return Ok(());
        };
        let (url, props) = self.context().ok_or_else(no_context)?;
        let (_server, reply) = self.exchange(
            &url,
            DrvMsg::Release {
                database: url.database().to_string(),
                user: props.user.clone(),
                driver: ns.driver_id,
            },
        )?;
        if !matches!(reply, DrvMsg::ReleaseOk) {
            return Err(DkError::Drv(DrvError::Codec(format!(
                "unexpected release reply {reply:?}"
            ))));
        }
        self.expire_sessions(ns.id, ExpirationPolicy::Immediate, "driver released");
        self.sync_lease_timer();
        Ok(())
    }

    /// Closes the dedicated channel (simulating application shutdown so
    /// the server-side failure detector fires).
    pub fn drop_notify_channel(&self) {
        let mut st = self.state.lock();
        if let Some(pipe) = st.pipe.take() {
            pipe.close();
        }
    }
}

/// The offer a request was answered with; a `DRIVOLUTION_ERROR` becomes
/// its typed error, any other frame a codec error naming `what`.
fn expect_offer(reply: DrvMsg, what: &str) -> DkResult<DrvOffer> {
    match reply {
        DrvMsg::Offer(offer) => Ok(offer),
        other => Err(DkError::Drv(other.unexpected(what))),
    }
}

fn no_context() -> DkError {
    DkError::Closed("no connection context".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undrained_fetch_latencies_stay_bounded() {
        let net = Network::new();
        let boot = Bootloader::new(
            &net,
            Addr::new("app", 1),
            BootloaderConfig::fixed(Vec::new()),
        );
        for dt in 0..=MAX_SAMPLES as u64 {
            push_sample(&mut boot.state.lock().fetch_latencies, dt);
        }
        let kept = boot.take_fetch_latencies();
        assert!(kept.len() <= MAX_SAMPLES, "{} samples kept", kept.len());
        assert_eq!(kept.last(), Some(&(MAX_SAMPLES as u64)));
    }
}
