//! The Drivolution bootloader (paper §3.1.1): a tiny interceptor that
//! downloads the right driver from a Drivolution server at `connect`
//! time, tracks its lease, and hot-swaps driver versions transparently.

use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;

use netsim::{Addr, Clock, Network, Pipe, TaskControl, TaskHandle};

use bytes::Bytes;
use driverkit::{
    ConnectProps, DbUrl, DkError, DkResult, Driver, DriverRegistry, DriverVm, Namespace,
    NamespaceId,
};

use drivolution_core::chunk::ChunkSet;
use drivolution_core::proto::{ChunkPlan, DrvErrCode, DrvMsg, DrvOffer, DrvRequest, RequestKind};
use drivolution_core::{
    transfer, DriverImage, DriverVersion, DrvError, DrvNotice, Lease, LeaseState,
};
use drivolution_depot::{parse_mirror_addr, DriverDepot};

use crate::config::{BootloaderConfig, ServerLocator};
use crate::managed::ManagedConnection;
use crate::swap::{SwapCoordinator, SwapStats};
use crate::tracker::ConnectionTracker;

/// Counters exposed for tests and benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BootStats {
    /// Driver files downloaded (bootstrap + upgrades + extensions).
    pub downloads: u64,
    /// Same-driver lease renewals.
    pub renewals: u64,
    /// Driver upgrades applied.
    pub upgrades: u64,
    /// Revocations applied.
    pub revocations: u64,
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

/// Per-source chunk-fetch statistics a bootloader keeps about each
/// mirror (and the primary) it has pulled chunks from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MirrorFetchStats {
    /// Fetch attempts (including retries).
    pub attempts: u64,
    /// Successful chunk-set fetches.
    pub successes: u64,
    /// Failed attempts (network or application refusal).
    pub failures: u64,
    /// Raw chunk payload bytes fetched from this source.
    pub bytes_fetched: u64,
    /// Virtual-clock latency of the most recent successful fetch.
    pub last_latency_ms: u64,
    /// Exponentially weighted moving average of successful fetch
    /// latencies — the client-side tiebreak between equally ranked
    /// candidates.
    pub ewma_latency_ms: u64,
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

struct BootState {
    server: Option<Addr>,
    pipe: Option<Pipe>,
    revoked: bool,
    last_url: Option<DbUrl>,
    last_props: Option<ConnectProps>,
}

/// The client-side bootloader. One per application; create with
/// [`Bootloader::new`] and keep behind the returned [`Arc`].
pub struct Bootloader {
    pub(crate) net: Network,
    pub(crate) local: Addr,
    pub(crate) config: BootloaderConfig,
    vm: DriverVm,
    pub(crate) registry: DriverRegistry,
    pub(crate) tracker: ConnectionTracker,
    pub(crate) clock: Clock,
    state: Mutex<BootState>,
    pub(crate) stats: Mutex<BootStats>,
    mirror_fetch: Mutex<HashMap<String, MirrorFetchStats>>,
    fetch_latencies: Mutex<Vec<u64>>,
    renewal_times: Mutex<Vec<u64>>,
    lifecycle: Mutex<LifecycleTasks>,
    pub(crate) swap: SwapCoordinator,
}

#[derive(Default)]
struct LifecycleTasks {
    /// Periodic upgrade-poll task (when `LifecyclePolicy::poll_every`).
    poll: Option<TaskHandle>,
    /// One-shot lease auto-renewal timer, re-armed at every lease grant.
    lease: Option<TaskHandle>,
    /// Periodic session-maintenance sweep (tracker prune + zombie reap),
    /// registered for self-driving and swap-enabled bootloaders.
    maintenance: Option<TaskHandle>,
    /// Renew-due instant the lease timer is currently armed for. The
    /// spread jitter is sampled once per lease grant; re-running
    /// maintenance against the same lease must not re-sample it (the
    /// timer would random-walk inside the margin and could starve).
    lease_armed_for: Option<u64>,
}

/// Per-mirror retry budget: transient network failures get one retry
/// before the walk moves to the next candidate.
const MIRROR_ATTEMPTS: usize = 2;

/// Cap on retained renewal-attempt timestamps (see
/// [`Bootloader::take_renewal_times`]); the oldest half is shed when a
/// harness never drains them.
const MAX_RENEWAL_TIMES: usize = 4096;

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
        let tasks = self.lifecycle.lock();
        if let Some(t) = &tasks.poll {
            t.cancel();
        }
        if let Some(t) = &tasks.lease {
            t.cancel();
        }
        if let Some(t) = &tasks.maintenance {
            t.cancel();
        }
        self.swap.cancel_task();
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
            state: Mutex::new(BootState {
                server: None,
                pipe: None,
                revoked: false,
                last_url: None,
                last_props: None,
            }),
            stats: Mutex::new(BootStats::default()),
            mirror_fetch: Mutex::new(HashMap::new()),
            fetch_latencies: Mutex::new(Vec::new()),
            renewal_times: Mutex::new(Vec::new()),
            lifecycle: Mutex::new(LifecycleTasks::default()),
            swap: SwapCoordinator::default(),
        });
        boot.register_lifecycle();
        boot
    }

    /// Registers the upgrade-poll task and the (dormant until a lease is
    /// granted) auto-renewal timer. Both hold only a weak reference:
    /// dropping the bootloader retires its tasks on their next firing.
    fn register_lifecycle(self: &Arc<Self>) {
        let policy = self.config.lifecycle;
        let sched = self.net.scheduler();
        let mut tasks = self.lifecycle.lock();
        if let Some(every) = policy.poll_every {
            let me = Arc::downgrade(self);
            tasks.poll = Some(sched.every(
                every,
                policy.poll_jitter,
                format!("upgrade-poll {}", self.local),
                move || Bootloader::task_tick(&me),
            ));
        }
        if policy.auto_renew {
            let me = Arc::downgrade(self);
            tasks.lease = Some(
                sched.dormant(format!("lease-renewal {}", self.local), move || {
                    Bootloader::task_tick(&me)
                }),
            );
        }
        // Session maintenance (tracker prune + zombie reap) rides the
        // same cadence idea as the server's failure detection: registered
        // for every self-driving or swap-enabled bootloader, so closed
        // sessions leave the tracking table without anybody having to
        // remember to call `prune`.
        if policy.poll_every.is_some() || self.config.swap.is_some() {
            let me = Arc::downgrade(self);
            tasks.maintenance = Some(sched.every(
                policy.maintain_every.max(Duration::from_millis(1)),
                Duration::ZERO,
                format!("session-maintenance {}", self.local),
                move || match Weak::upgrade(&me) {
                    Some(b) => {
                        b.tracker.sweep();
                        Ok(TaskControl::Continue)
                    }
                    None => Ok(TaskControl::Done),
                },
            ));
        }
        drop(tasks);
        if self.config.swap.is_some() {
            self.register_swap_task();
        }
    }

    /// One scheduler-driven maintenance pass. Renewal failures surface
    /// as task errors so fleets can read per-client failure counters off
    /// the handles.
    fn task_tick(me: &Weak<Bootloader>) -> netsim::TaskResult {
        let Some(b) = Weak::upgrade(me) else {
            return Ok(TaskControl::Done);
        };
        match b.poll() {
            PollOutcome::KeptAfterFailure => Err("renewal failed; driver kept (§4.1.3)".into()),
            _ => Ok(TaskControl::Continue),
        }
    }

    /// Handle to the lease auto-renewal timer, if auto-renewal is
    /// enabled. Dormant until the first lease is granted.
    pub fn lease_task(&self) -> Option<TaskHandle> {
        self.lifecycle.lock().lease.clone()
    }

    /// Handle to the periodic session-maintenance sweep, if registered
    /// (self-driving or swap-enabled bootloaders).
    pub fn maintenance_task(&self) -> Option<TaskHandle> {
        self.lifecycle.lock().maintenance.clone()
    }

    /// Current virtual-clock instant.
    pub(crate) fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// Re-arms the auto-renewal timer against the active lease: spread
    /// uniformly inside the front of the renewal window — `renew_due +
    /// jitter(0..margin·¾)`, sampled from the scheduler's
    /// seed-reproducible jitter — when the renew-due point is still
    /// ahead (renewing inside the margin, like the poll state machine,
    /// keeps license seats instead of racing the server-side holder
    /// eviction at the expiry tick, and the spread keeps a fleet
    /// granted leases in one wave from stampeding the server at one
    /// tick; the last quarter of the margin is kept free as link-
    /// latency and retry slack so the renewal message still lands
    /// before expiry), or one retry interval out when that point has
    /// passed (a renewal just failed and the driver was kept). With no
    /// active lease the timer goes quiet.
    fn sync_lease_timer(&self) {
        let mut tasks = self.lifecycle.lock();
        let Some(handle) = tasks.lease.clone() else {
            return;
        };
        let lease = self
            .registry
            .active()
            .map(|ns| (ns.lease.renew_due_at_ms(), ns.lease.renew_margin_ms()));
        match lease {
            Some((renew_at, margin)) => {
                let now = self.clock.now_ms();
                if renew_at > now {
                    // One jitter draw per lease grant: skip when the
                    // timer is already armed for this renew-due point.
                    if tasks.lease_armed_for != Some(renew_at) || !handle.is_scheduled() {
                        tasks.lease_armed_for = Some(renew_at);
                        handle.reschedule_at_jittered(renew_at, margin.saturating_sub(margin / 4));
                    }
                } else {
                    let due = now + self.config.lifecycle.renew_retry.as_millis() as u64;
                    tasks.lease_armed_for = None;
                    if handle.next_due_ms() != Some(due) {
                        handle.reschedule_at(due);
                    }
                }
            }
            None => {
                tasks.lease_armed_for = None;
                handle.pause();
            }
        }
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
        *self.stats.lock()
    }

    /// Per-source chunk-fetch statistics (mirrors and the primary),
    /// sorted by location.
    pub fn mirror_fetch_stats(&self) -> Vec<(String, MirrorFetchStats)> {
        let mut v: Vec<(String, MirrorFetchStats)> = self
            .mirror_fetch
            .lock()
            .iter()
            .map(|(k, s)| (k.clone(), *s))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Drains the recorded per-fetch virtual-clock latencies (one entry
    /// per successful chunk-set fetch), for percentile reporting.
    pub fn take_fetch_latencies(&self) -> Vec<u64> {
        std::mem::take(&mut *self.fetch_latencies.lock())
    }

    /// Drains the virtual-clock instants at which this bootloader
    /// contacted the server to renew (one entry per renewal attempt,
    /// whatever its outcome). Fleet harnesses bucket these per tick to
    /// measure the renewal burst the spread jitter is meant to flatten.
    pub fn take_renewal_times(&self) -> Vec<u64> {
        std::mem::take(&mut *self.renewal_times.lock())
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

    /// Lease state of the active driver at the current clock.
    pub fn lease_state(&self) -> Option<LeaseState> {
        self.registry
            .active()
            .map(|ns| ns.lease.state(self.clock.now_ms()))
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
        {
            let mut st = self.state.lock();
            st.last_url = Some(url.clone());
            st.last_props = Some(props.clone());
        }
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
        let state = self.tracker.register(inner, ns.id, self.clock.now_ms());
        Ok(ManagedConnection::new(state, Arc::clone(self)))
    }

    fn merge_props(&self, ns: &Namespace, props: &ConnectProps) -> ConnectProps {
        let mut merged = props.clone();
        for (k, v) in &ns.image.default_options {
            merged.options.entry(k.clone()).or_insert_with(|| v.clone());
        }
        // Server-enforced options override application settings (§3.3:
        // options "can be given to instruct the bootloader to enforce
        // particular settings at driver loading time").
        for (k, v) in &ns.options {
            if k == "locale" {
                merged.locale = Some(v.clone());
            }
            merged.options.insert(k.clone(), v.clone());
        }
        merged
    }

    // --- server interaction ---------------------------------------------

    fn build_request(&self, kind: RequestKind, url: &DbUrl, props: &ConnectProps) -> DrvRequest {
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
                let st = self.state.lock();
                let req = self.build_request(
                    RequestKind::Bootstrap,
                    url,
                    st.last_props.as_ref().unwrap_or(&ConnectProps::default()),
                );
                drop(st);
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
    fn exchange(&self, url: &DbUrl, msg: DrvMsg) -> DkResult<(Addr, DrvMsg)> {
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

    /// The database the current connection context is about (depot cache
    /// key).
    fn context_database(&self) -> String {
        self.state
            .lock()
            .last_url
            .as_ref()
            .map(|u| u.database().to_string())
            .unwrap_or_default()
    }

    /// The "separate trusted wrapper" verifying signatures (§3.1), then
    /// the VM load — shared tail of every delivery path.
    fn verify_and_load(
        &self,
        offer: &DrvOffer,
        bytes: Bytes,
    ) -> DkResult<(DriverImage, Arc<dyn Driver>)> {
        if let Some(trust) = &self.config.signature_trust {
            let sig = offer.signature.as_ref().ok_or_else(|| {
                DkError::Drv(DrvError::SignatureInvalid(
                    "server offered an unsigned driver but signatures are required".into(),
                ))
            })?;
            trust.verify(&bytes, sig).map_err(DkError::Drv)?;
        }
        let (image, driver) = self.vm.load(offer.format, bytes)?;
        Ok((image, driver))
    }

    fn download(
        &self,
        server: &Addr,
        offer: &DrvOffer,
    ) -> DkResult<(DriverImage, Arc<dyn Driver>)> {
        if let Some(depot) = self.config.depot.clone() {
            // Zero-transfer revalidation: the offer describes content the
            // depot already holds, verified by digest.
            if offer.location.is_empty() && offer.chunked.is_none() {
                let digest = offer.content_digest.ok_or_else(|| {
                    DkError::Drv(DrvError::TransferFailed(
                        "offer carries neither a file location nor a content digest".into(),
                    ))
                })?;
                let bytes = depot.lookup(digest).ok_or_else(|| {
                    DkError::Drv(DrvError::TransferFailed(format!(
                        "server offered cached content {digest:016x} absent from the depot"
                    )))
                })?;
                depot.note_revalidation(&self.context_database(), digest);
                {
                    let mut st = self.stats.lock();
                    st.revalidations += 1;
                    st.bytes_saved += bytes.len() as u64;
                }
                return self.verify_and_load(offer, bytes);
            }
            if let Some(plan) = &offer.chunked {
                return self.download_delta(server, offer, plan, &depot);
            }
        }

        let raw = self.net.request(
            &self.local,
            server,
            DrvMsg::FileRequest {
                location: offer.location.clone(),
                transfer_method: offer.transfer_method,
            }
            .encode(),
        );
        let reply = DrvMsg::decode(raw.map_err(|e| DkError::Drv(DrvError::Net(e.to_string())))?)
            .map_err(DkError::Drv)?;
        let payload = match reply {
            DrvMsg::FileData { payload } => payload,
            DrvMsg::Error { code, message } => return Err(DkError::Drv(code.into_error(message))),
            other => {
                return Err(DkError::Drv(DrvError::Codec(format!(
                    "unexpected file reply {other:?}"
                ))))
            }
        };
        let bytes = transfer::unwrap(offer.transfer_method, payload, &self.config.channel_trust)
            .map_err(DkError::Drv)?;
        // Verify before caching: an image that fails the signature check
        // must never enter the depot (it would be advertised in future
        // HAVE summaries and reused in delta assemblies).
        let loaded = self.verify_and_load(offer, bytes.clone())?;
        if let Some(depot) = &self.config.depot {
            depot.insert(&self.context_database(), bytes);
            depot.note_full_insert();
        }
        self.stats.lock().downloads += 1;
        Ok(loaded)
    }

    /// Fetches `digests` as a chunk set from `src` under `offer`'s
    /// transfer method.
    fn fetch_chunks(
        &self,
        src: &Addr,
        digests: &[u64],
        offer: &DrvOffer,
    ) -> DkResult<Vec<(u64, Bytes)>> {
        let raw = self
            .net
            .request(
                &self.local,
                src,
                DrvMsg::ChunkRequest {
                    digests: digests.to_vec(),
                    transfer_method: offer.transfer_method,
                }
                .encode(),
            )
            .map_err(|e| DkError::Drv(DrvError::Net(e.to_string())))?;
        match DrvMsg::decode(raw).map_err(DkError::Drv)? {
            DrvMsg::ChunkData { payload } => {
                let raw =
                    transfer::unwrap(offer.transfer_method, payload, &self.config.channel_trust)
                        .map_err(DkError::Drv)?;
                // ChunkSet::decode verifies every payload against its
                // digest.
                Ok(ChunkSet::decode(raw).map_err(DkError::Drv)?.chunks)
            }
            DrvMsg::Error { code, message } => Err(DkError::Drv(code.into_error(message))),
            other => Err(DkError::Drv(DrvError::Codec(format!(
                "unexpected chunk reply {other:?}"
            )))),
        }
    }

    /// Fetches `digests` from one source, measuring virtual-clock
    /// latency and maintaining that source's fetch statistics.
    fn timed_fetch(
        &self,
        location: &str,
        src: &Addr,
        digests: &[u64],
        offer: &DrvOffer,
    ) -> DkResult<Vec<(u64, Bytes)>> {
        let t0 = self.clock.now_ms();
        let result = self.fetch_chunks(src, digests, offer);
        let dt = self.clock.now_ms().saturating_sub(t0);
        {
            let mut fs = self.mirror_fetch.lock();
            let e = fs.entry(location.to_string()).or_default();
            e.attempts += 1;
            match &result {
                Ok(chunks) => {
                    e.successes += 1;
                    e.bytes_fetched += chunks.iter().map(|(_, b)| b.len() as u64).sum::<u64>();
                    e.last_latency_ms = dt;
                    e.ewma_latency_ms = if e.successes == 1 {
                        dt
                    } else {
                        (3 * e.ewma_latency_ms + dt) / 4
                    };
                }
                Err(_) => e.failures += 1,
            }
        }
        if result.is_ok() {
            self.fetch_latencies.lock().push(dt);
        }
        result
    }

    /// Chunked delta install: fetch only the chunks the depot lacks,
    /// walking the plan's ranked mirror candidates — healthy before
    /// unhealthy, own-zone before cross-zone, measured-latency EWMA as
    /// the tiebreak, with a small per-mirror retry budget for transient
    /// network errors — and falling back to the primary only when every
    /// candidate failed. Assemble, verify, load.
    fn download_delta(
        &self,
        server: &Addr,
        offer: &DrvOffer,
        plan: &ChunkPlan,
        depot: &Arc<DriverDepot>,
    ) -> DkResult<(DriverImage, Arc<dyn Driver>)> {
        // A zone peer may already have assembled exactly this image:
        // adopt its refcounted bytes instead of re-fetching and
        // re-materializing an identical copy. The adopted bytes are
        // re-verified against the manifest digest and the chunk map is
        // digest-verified during depot insertion, so a bad cache entry
        // fails like a corrupt download instead of being trusted.
        if let Some(cache) = &self.config.image_cache {
            if let Some((bytes, chunk_map)) = cache.get(plan.manifest.content_digest) {
                if bytes.len() as u64 == plan.manifest.total_size
                    && drivolution_core::fnv1a64(&bytes) == plan.manifest.content_digest
                {
                    let loaded = self.verify_and_load(offer, bytes.clone())?;
                    depot.insert_assembled(
                        &self.context_database(),
                        bytes,
                        &plan.manifest,
                        &chunk_map,
                    );
                    {
                        let mut st = self.stats.lock();
                        st.shared_image_reuses += 1;
                        st.bytes_saved += plan.manifest.total_size;
                    }
                    return Ok(loaded);
                }
            }
        }
        let (have, need) = depot.partition_chunks(&plan.manifest);
        let mut fetched: std::collections::HashMap<u64, Bytes> = std::collections::HashMap::new();
        let mut fetched_bytes: u64 = 0;
        let mut fell_back = false;
        if !need.is_empty() {
            let client_zone = self.zone();
            // Client-side refinement of the server's ranking. The sort
            // is stable, so the server's order remains the final
            // tiebreak.
            let mut candidates = plan.mirrors.clone();
            {
                let fs = self.mirror_fetch.lock();
                candidates.sort_by_key(|c| {
                    let zone_miss = match (client_zone.as_deref(), c.zone.as_deref()) {
                        (Some(a), Some(b)) => a != b,
                        _ => false,
                    };
                    let ewma = fs.get(&c.location).map(|s| s.ewma_latency_ms).unwrap_or(0);
                    (!c.healthy, zone_miss, ewma)
                });
            }
            // The zone of whichever source ultimately served the chunks.
            let mut source_zone: Option<Option<String>> = None;
            'candidates: for c in &candidates {
                let Ok(addr) = parse_mirror_addr(&c.location) else {
                    continue;
                };
                for _ in 0..MIRROR_ATTEMPTS {
                    match self.timed_fetch(&c.location, &addr, &need, offer) {
                        Ok(chunks) => {
                            fetched = chunks.into_iter().collect();
                            self.stats.lock().mirror_chunk_fetches += 1;
                            source_zone = Some(c.zone.clone());
                            break 'candidates;
                        }
                        // Only transient network failures are worth the
                        // rest of this mirror's retry budget; an
                        // application refusal is authoritative.
                        Err(DkError::Drv(DrvError::Net(_))) => {}
                        // Corruption-shaped failures: the mirror
                        // answered, but its bytes failed digest,
                        // checksum, frame, or signature verification.
                        // File a best-effort complaint so the directory
                        // can demote a byzantine mirror, then move on.
                        Err(DkError::Drv(
                            DrvError::BadPackage(detail)
                            | DrvError::TransferFailed(detail)
                            | DrvError::Codec(detail)
                            | DrvError::SignatureInvalid(detail),
                        )) => {
                            self.send_mirror_complaint(
                                server,
                                &c.location,
                                plan.manifest.content_digest,
                                &detail,
                            );
                            continue 'candidates;
                        }
                        Err(_) => continue 'candidates,
                    }
                }
            }
            if source_zone.is_none() {
                // Every mirror failed (or none was offered): the primary
                // is the fallback of last resort. Visible in stats so a
                // misconfigured mirror tier (wrong addresses, unpinned
                // certificates) does not silently degrade to
                // primary-only transfer.
                let loc = format!("{}:{}", server.host(), server.port());
                let chunks = self.timed_fetch(&loc, server, &need, offer)?;
                fetched = chunks.into_iter().collect();
                fell_back = !plan.mirrors.is_empty();
                source_zone = Some(self.net.zone_of(server.host()));
            }
            // drvlint: allow(map-iter) — summation is commutative; order
            // cannot reach the result.
            fetched_bytes = fetched.values().map(|b| b.len() as u64).sum();
            let same_zone = match (client_zone.as_deref(), source_zone.flatten().as_deref()) {
                (Some(a), Some(b)) => a == b,
                // Unzoned topologies are a single implicit zone.
                _ => true,
            };
            let mut st = self.stats.lock();
            if same_zone {
                st.same_zone_chunk_bytes += fetched_bytes;
            } else {
                st.cross_zone_chunk_bytes += fetched_bytes;
            }
        }
        // Assemble (content-verified), then check the signature before the
        // image may enter the depot.
        let bytes = depot
            .assemble(&plan.manifest, &fetched)
            .map_err(DkError::Drv)?;
        let loaded = self.verify_and_load(offer, bytes.clone())?;
        depot.insert_assembled(
            &self.context_database(),
            bytes.clone(),
            &plan.manifest,
            &fetched,
        );
        if let Some(cache) = &self.config.image_cache {
            // Publish for zone peers: the verified image plus the chunk
            // bytes it was assembled from (fetched entries and local
            // reuses alike), all as refcounted handles.
            let mut chunk_map = fetched.clone();
            for d in &have {
                if let Some(c) = depot.chunk(*d) {
                    chunk_map.insert(*d, c);
                }
            }
            cache.put(plan.manifest.content_digest, bytes, Arc::new(chunk_map));
        }
        let saved = plan.manifest.total_size.saturating_sub(fetched_bytes);
        {
            let mut st = self.stats.lock();
            st.delta_downloads += 1;
            st.bytes_saved += saved;
            if fell_back {
                st.mirror_fallbacks += 1;
            }
        }
        Ok(loaded)
    }

    fn lease_of(&self, offer: &DrvOffer) -> DkResult<Lease> {
        Lease::grant(
            offer.driver_id,
            self.clock.now_ms(),
            offer.lease_ms,
            offer.renew_policy,
            offer.expiration_policy,
        )
        .map_err(DkError::Drv)
    }

    fn install_offer(&self, server: &Addr, offer: &DrvOffer) -> DkResult<NamespaceId> {
        let (image, driver) = self.download(server, offer)?;
        let lease = self.lease_of(offer)?;
        let ns = self
            .registry
            .load(driver, image, offer.driver_id, lease, offer.options.clone());
        Ok(ns)
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
        {
            let mut st = self.state.lock();
            st.last_url = Some(url.clone());
            st.last_props = Some(props.clone());
        }
        let req = self.build_request(RequestKind::Bootstrap, url, props);
        let (server, reply) = self.exchange(url, DrvMsg::Request(req))?;
        let offer = match reply {
            DrvMsg::Offer(o) => o,
            DrvMsg::Error { code, message } => return Err(DkError::Drv(code.into_error(message))),
            other => {
                return Err(DkError::Drv(DrvError::Codec(format!(
                    "unexpected bootstrap reply {other:?}"
                ))))
            }
        };
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

    // --- lease maintenance (Table 4) ------------------------------------

    /// Drains pushed notices and runs the lease state machine once, then
    /// re-arms the auto-renewal timer against whatever lease resulted.
    ///
    /// This is the manual "run my maintenance now" entry point: the
    /// scheduler-registered upgrade-poll task and lease-renewal timer
    /// call exactly this, so tests and harnesses that hand-crank the
    /// clock keep full control, while fleets just pump
    /// [`netsim::Network::run_until`] (§3.4.2's timer thread without
    /// anybody writing one). It also runs at each `connect` ("wait
    /// lazily for an application call to trigger the check").
    pub fn poll(self: &Arc<Self>) -> PollOutcome {
        self.stats.lock().polls += 1;
        let outcome = self.maintenance();
        self.sync_lease_timer();
        outcome
    }

    /// Drains pushed notices off the dedicated channel; returns whether
    /// any of them concerned our database (forcing a renewal).
    fn drain_notices(&self) -> bool {
        let mut force_renew = false;
        let mut st = self.state.lock();
        if let Some(pipe) = &st.pipe {
            while let Ok(Some(raw)) = pipe.try_recv() {
                if let Ok(notice) = DrvNotice::decode(raw) {
                    let ours = st
                        .last_url
                        .as_ref()
                        .map(|u| u.database() == notice_database(&notice))
                        .unwrap_or(false);
                    if ours {
                        force_renew = true;
                    }
                }
            }
            if !pipe.is_open() {
                st.pipe = None;
            }
        }
        force_renew
    }

    /// Records a renewal attempt timestamp, bounded: an undrained
    /// long-lived bootloader keeps only the most recent attempts instead
    /// of growing forever.
    fn record_renewal_time(&self) {
        let mut times = self.renewal_times.lock();
        if times.len() >= MAX_RENEWAL_TIMES {
            times.drain(..MAX_RENEWAL_TIMES / 2);
        }
        times.push(self.clock.now_ms());
    }

    fn maintenance(self: &Arc<Self>) -> PollOutcome {
        let force_renew = self.drain_notices();
        let Some(ns) = self.registry.active() else {
            return PollOutcome::Idle;
        };
        let lease_state = ns.lease.state(self.clock.now_ms());
        if !force_renew && lease_state == LeaseState::Valid {
            return PollOutcome::Idle;
        }
        self.renew(&ns)
    }

    fn renew(self: &Arc<Self>, ns: &Namespace) -> PollOutcome {
        let (url, props) = {
            let st = self.state.lock();
            match (st.last_url.clone(), st.last_props.clone()) {
                (Some(u), Some(p)) => (u, p),
                _ => return PollOutcome::Idle,
            }
        };
        let req = self.build_request(
            RequestKind::Renewal {
                current: ns.driver_id,
            },
            &url,
            &props,
        );
        self.record_renewal_time();
        match self.exchange(&url, DrvMsg::Request(req)) {
            Ok((server, DrvMsg::Offer(offer))) => self.apply_renewal_offer(ns, &url, server, offer),
            Ok((_server, DrvMsg::Error { .. })) => {
                // REVOKE (or no driver anymore): block new connections and
                // transition existing ones per the *current* lease policy.
                self.apply_revoke(ns);
                PollOutcome::Revoked
            }
            _ => {
                // Network failure or nonsense: keep the current driver.
                self.stats.lock().failed_renewals += 1;
                PollOutcome::KeptAfterFailure
            }
        }
    }

    /// Applies a renewal-shaped offer, whether it arrived as an
    /// individual reply or inside an `OFFER_BATCH`.
    fn apply_renewal_offer(
        self: &Arc<Self>,
        ns: &Namespace,
        url: &DbUrl,
        server: Addr,
        offer: DrvOffer,
    ) -> PollOutcome {
        if offer.same_driver {
            // RENEW: keep the driver, restart the lease window.
            if let Ok(lease) = self.lease_of(&offer) {
                let _ = self.registry.set_lease(ns.id, lease);
            }
            self.state.lock().server = Some(server);
            self.stats.lock().renewals += 1;
            return PollOutcome::Renewed;
        }
        // UPGRADE: download, switch new connects, transition old
        // connections per the offer's expiration policy, unload.
        let from = ns.image.version;
        match self.install_offer(&server, &offer) {
            Ok(new_ns) => {
                let to = self
                    .registry
                    .get(new_ns)
                    .map(|n| n.image.version)
                    .unwrap_or_default();
                if self.registry.activate(new_ns).is_err() {
                    return PollOutcome::KeptAfterFailure;
                }
                self.state.lock().server = Some(server);
                if self.swap_enabled() {
                    // Coexistence window: old sessions keep executing on
                    // the prior driver and migrate at their next
                    // transaction boundary; the policy is enforced only
                    // on stragglers after the drain grace.
                    self.swap_begin(ns.id, from, to, offer.expiration_policy);
                } else {
                    self.tracker.apply_policy(
                        ns.id,
                        offer.expiration_policy,
                        "driver upgraded by drivolution server",
                    );
                    self.maybe_unload(ns.id);
                }
                self.stats.lock().upgrades += 1;
                if self.config.report_activation {
                    let verdict = self.run_activation_check(new_ns);
                    self.send_activation_report(url, &offer, Some(to), verdict);
                }
                PollOutcome::Upgraded { from, to }
            }
            Err(e) => {
                self.stats.lock().failed_renewals += 1;
                if self.config.report_activation {
                    self.send_activation_report(
                        url,
                        &offer,
                        None,
                        Err(format!("driver install failed: {e}")),
                    );
                }
                PollOutcome::KeptAfterFailure
            }
        }
    }

    // --- batched renewals (aggregator interface) ------------------------

    /// The renewal request this bootloader would send right now, or
    /// `None` when no renewal is due (no active driver, or the lease is
    /// still valid and no pushed notice forced a renewal). A fleet-side
    /// aggregator collects these from every client in a zone and
    /// coalesces them into one `RENEW_BATCH` frame; replies come back
    /// through [`apply_batch_offer`](Self::apply_batch_offer). The entry
    /// carries this bootloader's host so the server attributes the
    /// license seat to the client, not the aggregator.
    pub fn batch_renewal_entry(self: &Arc<Self>) -> Option<(String, DrvRequest)> {
        let force_renew = self.drain_notices();
        let ns = self.registry.active()?;
        let lease_state = ns.lease.state(self.clock.now_ms());
        if !force_renew && lease_state == LeaseState::Valid {
            return None;
        }
        let (url, props) = {
            let st = self.state.lock();
            match (st.last_url.clone(), st.last_props.clone()) {
                (Some(u), Some(p)) => (u, p),
                _ => return None,
            }
        };
        let req = self.build_request(
            RequestKind::Renewal {
                current: ns.driver_id,
            },
            &url,
            &props,
        );
        self.record_renewal_time();
        Some((self.local.host().to_string(), req))
    }

    /// Applies one reply from an `OFFER_BATCH` to this bootloader,
    /// mirroring exactly what an individually exchanged renewal would
    /// have done: same-driver offers renew the lease, other offers
    /// upgrade, and error replies revoke. Re-arms the lease timer.
    pub fn apply_batch_offer(
        self: &Arc<Self>,
        server: &Addr,
        reply: Result<DrvOffer, (DrvErrCode, String)>,
    ) -> PollOutcome {
        let Some(ns) = self.registry.active() else {
            return PollOutcome::Idle;
        };
        let Some(url) = self.state.lock().last_url.clone() else {
            return PollOutcome::Idle;
        };
        let outcome = match reply {
            Ok(offer) => self.apply_renewal_offer(&ns, &url, server.clone(), offer),
            Err(_) => {
                self.apply_revoke(&ns);
                PollOutcome::Revoked
            }
        };
        self.sync_lease_timer();
        outcome
    }

    /// Runs the configured post-activation self-check against the
    /// freshly activated namespace.
    fn run_activation_check(&self, ns_id: NamespaceId) -> Result<(), String> {
        let Some(check) = &self.config.activation_check else {
            return Ok(());
        };
        match self.registry.get(ns_id) {
            Some(ns) => check.run(&ns.image),
            None => Err("no active driver after upgrade".to_string()),
        }
    }

    /// Best-effort `MIRROR_COMPLAINT`: tells the server that `location`
    /// served bytes that failed local verification. Transport failures
    /// are swallowed — the complaint is advisory evidence for the
    /// directory's strike ledger, never part of the fetch path's own
    /// control flow.
    fn send_mirror_complaint(&self, server: &Addr, location: &str, digest: u64, detail: &str) {
        self.stats.lock().mirror_complaints += 1;
        let msg = DrvMsg::MirrorComplaint {
            location: location.to_string(),
            digest,
            detail: detail.to_string(),
        };
        let _ = self.net.request(&self.local, server, msg.encode());
    }

    /// Best-effort `ACTIVATION_REPORT`: tells the server how the upgrade
    /// went so staged-rollout health gates have real signal. Transport
    /// failures are swallowed — the report is advisory, never part of
    /// the lease state machine.
    fn send_activation_report(
        &self,
        url: &DbUrl,
        offer: &DrvOffer,
        version: Option<DriverVersion>,
        verdict: Result<(), String>,
    ) {
        let (ok, detail) = match verdict {
            Ok(()) => (true, String::new()),
            Err(detail) => (false, detail),
        };
        {
            let mut st = self.stats.lock();
            st.activation_reports += 1;
            if !ok {
                st.activation_failures += 1;
            }
        }
        let msg = DrvMsg::ActivationReport {
            database: url.database().to_string(),
            driver: offer.driver_id,
            version,
            ok,
            detail,
        };
        let _ = self.exchange(url, msg);
    }

    fn apply_revoke(&self, ns: &Namespace) {
        {
            let mut st = self.state.lock();
            st.revoked = true;
        }
        self.registry.retire(ns.id);
        self.tracker.apply_policy(
            ns.id,
            ns.lease.expiration_policy(),
            "driver revoked and no replacement available",
        );
        self.maybe_unload(ns.id);
        self.stats.lock().revocations += 1;
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
        let (url, props) = {
            let st = self.state.lock();
            (
                st.last_url.clone().ok_or_else(|| {
                    DkError::Closed("no connection context for extension fetch".into())
                })?,
                st.last_props.clone().unwrap_or_default(),
            )
        };
        let req = self.build_request(
            RequestKind::Extension {
                base: ns.driver_id,
                name: name.to_string(),
            },
            &url,
            &props,
        );
        let (server, reply) = self.exchange(&url, DrvMsg::Request(req))?;
        let offer = match reply {
            DrvMsg::Offer(o) => o,
            DrvMsg::Error { code, message } => return Err(DkError::Drv(code.into_error(message))),
            other => {
                return Err(DkError::Drv(DrvError::Codec(format!(
                    "unexpected extension reply {other:?}"
                ))))
            }
        };
        let new_ns = self.install_offer(&server, &offer)?;
        self.registry.activate(new_ns)?;
        // Old connections keep working (extension fetch is additive).
        self.stats.lock().extension_fetches += 1;
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
        let (url, props) = {
            let st = self.state.lock();
            (
                st.last_url
                    .clone()
                    .ok_or_else(|| DkError::Closed("no connection context".into()))?,
                st.last_props.clone().unwrap_or_default(),
            )
        };
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
        let (url, props) = {
            let st = self.state.lock();
            (
                st.last_url
                    .clone()
                    .ok_or_else(|| DkError::Closed("no connection context".into()))?,
                st.last_props.clone().unwrap_or_default(),
            )
        };
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
        self.registry.retire(ns.id);
        self.tracker.apply_policy(
            ns.id,
            drivolution_core::ExpirationPolicy::Immediate,
            "driver released",
        );
        self.maybe_unload(ns.id);
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

fn notice_database(notice: &DrvNotice) -> &str {
    match notice {
        DrvNotice::DriverAvailable { database } | DrvNotice::DriverRevoked { database } => database,
    }
}
