//! The Drivolution bootloader (paper §3.1.1): a tiny interceptor that
//! downloads the right driver from a Drivolution server at `connect`
//! time, tracks its lease, and hot-swaps driver versions transparently.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use netsim::{Addr, NetError, Network, Pipe, TaskControl, TaskHandle};

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
/// reap) in ms — the client-side analog of the server's
/// failure-detection cadence.
const MAINTAIN_EVERY: u64 = 30_000;

/// "Not due": a lifecycle job with nothing to do.
pub(crate) const NEVER: u64 = u64::MAX;

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
    pub(crate) revoked: bool,
    /// A renewal exchange failed: the next one goes out whatever the
    /// lease says, as if a pushed notice had just arrived, so a notice
    /// the failed renewal consumed is not lost. Cleared by the next
    /// exchange that completes.
    pub(crate) renew_owed: bool,
    /// URL and properties of the last `connect`/`bootstrap`: the
    /// identity every later exchange with the server is made under.
    pub(crate) context: Option<(DbUrl, ConnectProps)>,
    /// What a renewal may name instead of its whole request.
    pub(crate) renew_ref: RenewRef,
    /// `Some(zone)` while the [`RenewRef::Token`] is the digest of a
    /// request built from the current `context` in `zone`: a client
    /// without a depot (whose request reads nothing else that changes)
    /// still placed in `zone` renews by reference without building its
    /// request. Cleared when the context changes.
    pub(crate) token_zone: Option<Option<String>>,
    /// The request this client's last batched renewal carried, reused
    /// while it is the one `build_request` would build: the context is
    /// unchanged (cleared when it changes) and so are its kind, `have`
    /// and zone. A fleet's aggregator hands back the value its clients
    /// share ([`Bootloader::share_renewal_request`]).
    pub(crate) batch_request: Option<Arc<DrvRequest>>,
    /// A server refused the `FETCH` frame itself: every request of this
    /// bootloader goes out as a `REQUEST`, and a file it is offered is
    /// fetched with a `FILE_REQUEST`.
    pub(crate) fetch_refused: bool,
    pub(crate) stats: HotStats,
    /// Told this client's next renewal deadline after every change to
    /// it, when something outside drives its renewals
    /// ([`Bootloader::on_renewal_due`]).
    pub(crate) renewal_due: Option<Arc<dyn Fn(u64) + Send + Sync>>,
    pub(crate) renewal_times: Vec<u64>,
    pub(crate) lifecycle: Lifecycle,
    /// What only the paths a client that bootstraps and renews never
    /// takes write; allocated by the first of them ([`BootState::cold`]).
    pub(crate) cold: Option<Box<ColdState>>,
}

/// Splits [`BootStats`] in two and assembles the view from both, each
/// counter named once: [`HotStats`], the counters every client writes,
/// and [`ColdStats`], the ones only the cold paths write.
macro_rules! split_stats {
    (hot { $($hot:ident),* } cold { $($cold:ident: $ty:ty),* $(,)? }) => {
        /// The [`BootStats`] counters every client writes.
        #[derive(Clone, Copy, Default)]
        pub(crate) struct HotStats {
            $(pub(crate) $hot: u64,)*
        }

        /// The [`BootStats`] counters only the cold paths write.
        #[derive(Clone, Copy, Default)]
        pub(crate) struct ColdStats {
            $(pub(crate) $cold: $ty,)*
        }

        fn assemble_stats(hot: HotStats, cold: ColdStats) -> BootStats {
            BootStats {
                $($hot: hot.$hot,)*
                $($cold: cold.$cold,)*
            }
        }
    };
}

split_stats! {
    hot { downloads, renewals, upgrades, failed_renewals, polls }
    cold {
        extension_fetches: u64,
        revalidations: u64,
        delta_downloads: u64,
        bytes_saved: u64,
        mirror_fallbacks: u64,
        mirror_chunk_fetches: u64,
        shared_image_reuses: u64,
        same_zone_chunk_bytes: u64,
        cross_zone_chunk_bytes: u64,
        mirror_complaints: u64,
        activation_reports: u64,
        activation_failures: u64,
        swap: SwapStats,
    }
}

/// The state of notify channels, extensions, depot deliveries, mirror
/// walks, activation reports and swap windows.
#[derive(Default)]
pub(crate) struct ColdState {
    pub(crate) pipe: Option<Pipe>,
    pub(crate) mirror_fetch: HashMap<String, MirrorFetchStats>,
    pub(crate) fetch_latencies: Vec<u64>,
    /// Open hot-swap coexistence windows.
    pub(crate) windows: Vec<DrainWindow>,
    pub(crate) stats: ColdStats,
}

/// What a client knows about renewing by reference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum RenewRef {
    /// No full request has drawn an offer since the server last lost it.
    #[default]
    Unknown,
    /// The [`DrvRequest::context_digest`] of the last full request that
    /// drew an offer: the server keeps that request for this host, so a
    /// renewal whose request has the same digest names it by this token.
    Token(u64),
    /// A server refused the `RENEW_REF` frame itself: every renewal of
    /// this bootloader travels in full.
    Refused,
}

impl BootState {
    /// The cold part, allocated now if this is its first use.
    pub(crate) fn cold(&mut self) -> &mut ColdState {
        self.cold.get_or_insert_with(Box::default)
    }

    /// The open notify channel, if any.
    pub(crate) fn pipe(&self) -> Option<&Pipe> {
        self.cold.as_ref()?.pipe.as_ref()
    }

    /// The frozen counter view: the hot counters and the cold ones.
    fn stats(&self) -> BootStats {
        let cold = self
            .cold
            .as_ref()
            .map_or_else(ColdStats::default, |c| c.stats);
        assemble_stats(self.stats, cold)
    }

    /// A full request whose context digest is `token`, built from the
    /// current context in `zone`, drew an offer: the server keeps it for
    /// this host.
    pub(crate) fn offered(&mut self, token: u64, zone: Option<String>) {
        if self.renew_ref != RenewRef::Refused {
            self.renew_ref = RenewRef::Token(token);
            self.token_zone = Some(zone);
        }
    }

    /// Makes `server` the first one tried next time, copying its address
    /// only when it changed.
    pub(crate) fn prefer(&mut self, server: &Addr) {
        if self.server.as_ref() != Some(server) {
            self.server = Some(server.clone());
        }
    }
}

/// The error of an exchange no candidate server answered: the last
/// network error.
pub(crate) fn unreachable(errs: &[NetError]) -> DkError {
    DkError::Drv(DrvError::Net(format!(
        "no drivolution server reachable: {}",
        errs.last()
            .map(|e| e.to_string())
            .unwrap_or_else(|| "no candidates".to_string())
    )))
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
    /// Shared by every client built from one configuration.
    pub(crate) config: Arc<BootloaderConfig>,
    pub(crate) vm: DriverVm,
    pub(crate) registry: DriverRegistry,
    pub(crate) tracker: ConnectionTracker,
    pub(crate) state: Mutex<BootState>,
}

/// The one scheduler task of a bootloader that drives its own lifecycle,
/// and when each of its three jobs is next due ([`NEVER`]: not at all).
/// The task is armed at the earliest of them and, when it fires, runs
/// the due ones in a fixed order: poll, sweep, swap tick.
pub(crate) struct Lifecycle {
    pub(crate) task: Option<TaskHandle>,
    /// Origin of the poll and sweep grids: the registration instant plus
    /// one poll-jitter draw. Their ticks are `origin + k · interval`,
    /// `k ≥ 1`.
    pub(crate) origin: u64,
    /// The renew-due instant the lease timer's spread was drawn for, and
    /// the instant drawn. One draw per lease grant: re-drawing against
    /// the same lease would random-walk the timer inside the margin.
    pub(crate) drawn: (u64, u64),
    /// The poll: renew, read pushed notices, or retry a failed renewal.
    pub(crate) poll_at: u64,
    /// The session sweep, while any session is tracked.
    pub(crate) sweep_at: u64,
    /// The swap tick, while a coexistence window is open.
    pub(crate) swap_at: u64,
    /// How far the clock had run past the turn of the firing in progress
    /// (0 between firings): the pump's lateness, which the poll term
    /// allows for.
    pub(crate) late_ms: u64,
}

impl Default for Lifecycle {
    fn default() -> Self {
        Lifecycle {
            task: None,
            origin: 0,
            drawn: (NEVER, NEVER),
            poll_at: NEVER,
            sweep_at: NEVER,
            swap_at: NEVER,
            late_ms: 0,
        }
    }
}

impl Lifecycle {
    /// The first tick of the `every` grid at or after `at`.
    pub(crate) fn tick_at_or_after(&self, at: u64, every: u64) -> u64 {
        let k = at.saturating_sub(self.origin).div_ceil(every).max(1);
        self.origin.saturating_add(k.saturating_mul(every))
    }

    /// Arms the task at the earliest due job; off the schedule when no
    /// job is due.
    pub(crate) fn arm(&self) {
        let Some(task) = &self.task else {
            return;
        };
        let at = self.poll_at.min(self.sweep_at).min(self.swap_at);
        match task.next_due_ms() {
            Some(due) if due == at => {}
            _ if at == NEVER => task.pause(),
            _ => task.reschedule_at(at),
        }
    }
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
    /// Cancels the lifecycle task so a dropped bootloader does not leave
    /// an entry in the scheduler's table: a dormant task would otherwise
    /// linger forever, since a task that never fires never notices its
    /// weak reference died.
    fn drop(&mut self) {
        if let Some(task) = &self.state.lock().lifecycle.task {
            task.cancel();
        }
    }
}

impl Bootloader {
    /// Creates a bootloader for an application at `local` and registers
    /// its lifecycle tasks (per `config.lifecycle`) on the network's
    /// scheduler. A fleet whose clients are configured alike passes them
    /// one shared `Arc`.
    pub fn new(net: &Network, local: Addr, config: impl Into<Arc<BootloaderConfig>>) -> Arc<Self> {
        let vm = DriverVm::new(net.clone(), local.clone());
        let boot = Arc::new(Bootloader {
            net: net.clone(),
            local,
            config: config.into(),
            vm,
            registry: DriverRegistry::new(),
            tracker: ConnectionTracker::new(),
            state: Mutex::new(BootState::default()),
        });
        boot.register_lifecycle();
        boot
    }

    /// Registers the lifecycle task (per `config.lifecycle`, or for a
    /// swap config), dormant until a job is due. It holds only a weak
    /// reference and retires itself once the bootloader is dropped.
    fn register_lifecycle(self: &Arc<Self>) {
        let policy = self.config.lifecycle;
        if policy.poll_every.is_none() && !policy.auto_renew && !self.sweeps() {
            return;
        }
        let name = format!("lifecycle {}", self.local);
        let task = self
            .net
            .scheduler()
            .owned(self, None, name, Bootloader::lifecycle_tick);
        let origin = self.net.clock().now_ms() + task.jitter(policy.poll_jitter.as_millis() as u64);
        let mut st = self.state.lock();
        (st.lifecycle.task, st.lifecycle.origin) = (Some(task), origin);
    }

    /// Whether this bootloader sweeps its sessions on schedule: a
    /// self-driving or swap-enabled one does, so closed sessions leave
    /// the tracking table without anybody having to call `prune` (the
    /// cadence idea of the server's failure detection).
    fn sweeps(&self) -> bool {
        self.config.lifecycle.poll_every.is_some() || self.config.swap.is_some()
    }

    /// One firing of the lifecycle task: the jobs due by now, in order —
    /// the poll, the session sweep, the swap tick — then the task re-armed
    /// at the next due job. Renewal failures surface as task errors so
    /// fleets can read per-client failure counters off the handle.
    fn lifecycle_tick(self: &Arc<Self>) -> netsim::TaskResult {
        let now = self.net.clock().now_ms();
        // A job that runs is not due again until it says when.
        let take = |at: &mut u64| {
            let due = *at <= now;
            if due {
                *at = NEVER;
            }
            due
        };
        let (poll, sweep, swap) = {
            let l = &mut self.state.lock().lifecycle;
            let turn = l.poll_at.min(l.sweep_at).min(l.swap_at);
            l.late_ms = now.saturating_sub(turn);
            (
                take(&mut l.poll_at),
                take(&mut l.sweep_at),
                take(&mut l.swap_at),
            )
        };
        let outcome = match poll {
            true if self.poll_has_work(now) => Some(self.poll()),
            true => {
                self.sync_lease_timer();
                None
            }
            false => None,
        };
        if sweep {
            self.tracker.sweep();
            self.sync_sweep();
        }
        if swap {
            self.swap_tick();
        }
        let l = &mut self.state.lock().lifecycle;
        l.late_ms = 0;
        l.arm();
        match outcome {
            Some(PollOutcome::KeptAfterFailure) => {
                Err("renewal failed; driver kept (§4.1.3)".into())
            }
            _ => Ok(TaskControl::Continue),
        }
    }

    /// Puts the session sweep on its next 30 s tick while a session is
    /// tracked, off the schedule once none is.
    fn sync_sweep(&self) {
        if !self.sweeps() {
            return;
        }
        let tracked = self.tracker.tracked_len() > 0;
        let now = self.net.clock().now_ms();
        let l = &mut self.state.lock().lifecycle;
        if !tracked {
            l.sweep_at = NEVER;
        } else if l.sweep_at == NEVER {
            l.sweep_at = l.tick_at_or_after(now + 1, MAINTAIN_EVERY);
        }
        l.arm();
    }

    /// Handle to the lifecycle task: registered for a bootloader that
    /// polls, auto-renews or hot-swaps, dormant while no job is due.
    pub fn lifecycle_task(&self) -> Option<TaskHandle> {
        self.state.lock().lifecycle.task.clone()
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
        self.state.lock().stats()
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
        self.sync_sweep();
        Ok(ManagedConnection::new(state, Arc::clone(self)))
    }

    fn remember(&self, url: &DbUrl, props: &ConnectProps) {
        let mut st = self.state.lock();
        if st
            .context
            .as_ref()
            .is_some_and(|(u, p)| u == url && p == props)
        {
            return;
        }
        st.context = Some((url.clone(), props.clone()));
        st.token_zone = None;
        st.batch_request = None;
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
        self.send(url, msg.encode())?
            .map_err(|errs| unreachable(&errs))
    }

    /// Sends `req` as a `FETCH`, whose answer carries the offered file
    /// when the client would otherwise fetch it whole, or as a
    /// `REQUEST` once a server refused that frame. A server from before
    /// it refuses it as undecodable; the request then goes out again in
    /// the same attempt, and the client does not ask again.
    pub(crate) fn ask(&self, url: &DbUrl, req: DrvRequest) -> DkResult<(Addr, DrvMsg)> {
        if !self.state.lock().fetch_refused {
            match self.send_new_tag(url, req.fetch_frame())? {
                Some(answered) => return Ok(answered),
                None => self.state.lock().fetch_refused = true,
            }
        }
        self.exchange(url, DrvMsg::Request(req))
    }

    /// [`Self::exchange`] for `frame`, a tag servers from before it do
    /// not know: `None` when a candidate refused it as undecodable, for
    /// the caller to say the same in an older frame.
    pub(crate) fn send_new_tag(
        &self,
        url: &DbUrl,
        frame: Bytes,
    ) -> DkResult<Option<(Addr, DrvMsg)>> {
        match self.send(url, frame)? {
            Ok(answered) => Ok(Some(answered)),
            Err(errs) if errs.iter().any(|e| matches!(e, NetError::Protocol(_))) => Ok(None),
            Err(errs) => Err(unreachable(&errs)),
        }
    }

    /// [`Self::exchange`] for an encoded `frame`, handing back every
    /// candidate's network error, in the order tried, when none
    /// answered.
    pub(crate) fn send(
        &self,
        url: &DbUrl,
        frame: Bytes,
    ) -> DkResult<Result<(Addr, DrvMsg), Vec<NetError>>> {
        let mut errs = Vec::new();
        let mut attempt = |server: Addr| match self.net.request(&self.local, &server, frame.clone())
        {
            Ok(raw) => DrvMsg::decode(raw)
                .map(|reply| Some((server, reply)))
                .map_err(DkError::Drv),
            Err(e) => {
                errs.push(e);
                Ok(None)
            }
        };
        // The server that answered last first, before the list is built.
        let preferred = self.state.lock().server.clone();
        if let Some(server) = preferred.clone() {
            if let Some(answered) = attempt(server)? {
                return Ok(Ok(answered));
            }
        }
        for server in self.candidate_servers(url)? {
            if preferred.as_ref() != Some(&server) {
                if let Some(answered) = attempt(server)? {
                    return Ok(Ok(answered));
                }
            }
        }
        Ok(Err(errs))
    }

    /// Performs the cold bootstrap (Table 3): request → offer → file →
    /// decode → load. The request goes out as a `FETCH`: a server that
    /// would offer the whole file sends it inside its answer
    /// (`OFFER_FILE`), one round trip for the offer and the file. A
    /// revalidation or a chunked delta comes back as a plain `OFFER`, and
    /// a server that refuses the frame is asked with a `REQUEST`, whose
    /// offer names a staged file the client fetches with a
    /// `FILE_REQUEST`.
    ///
    /// # Errors
    ///
    /// Server errors, transfer failures, signature/certificate rejections.
    pub fn bootstrap(&self, url: &DbUrl, props: &ConnectProps) -> DkResult<Namespace> {
        // Remember identity so later polls can renew even when the
        // bootstrap was driven directly rather than through `connect`.
        self.remember(url, props);
        let req = self.build_request(RequestKind::Bootstrap, url, props);
        let (token, zone) = (req.context_digest(), req.zone.clone());
        let (server, reply) = self.ask(url, req)?;
        let (offer, file) = offered(reply, "bootstrap")?;
        self.state.lock().offered(token, zone);
        let ns_id = self.install_offer(&server, &offer, file)?;
        self.registry.activate(ns_id)?;
        {
            let mut st = self.state.lock();
            st.server = Some(server.clone());
            st.revoked = false;
            if self.config.open_notify_channel && st.pipe().is_none() {
                if let Ok(pipe) = self.net.connect_pipe(&self.local, &server) {
                    st.cold().pipe = Some(pipe);
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
        let (server, reply) = self.ask(&url, req)?;
        let (offer, file) = offered(reply, "extension")?;
        let new_ns = self.install_offer(&server, &offer, file)?;
        self.registry.activate(new_ns)?;
        // Old connections keep working (extension fetch is additive).
        self.state.lock().cold().stats.extension_fetches += 1;
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
        let pipe = self
            .state
            .lock()
            .cold
            .as_deref_mut()
            .and_then(|c| c.pipe.take());
        if let Some(pipe) = pipe {
            pipe.close();
        }
        self.report_renewal_deadline();
    }
}

/// The offer a request was answered with, and the wrapped file when it
/// came inside the answer; a `DRIVOLUTION_ERROR` becomes its typed
/// error, any other frame a codec error naming `what`.
fn offered(reply: DrvMsg, what: &str) -> DkResult<(DrvOffer, Option<Bytes>)> {
    match reply {
        DrvMsg::Offer(offer) => Ok((offer, None)),
        DrvMsg::OfferFile { offer, payload } => Ok((offer, Some(payload))),
        other => Err(DkError::Drv(other.unexpected(what))),
    }
}

pub(crate) fn no_context() -> DkError {
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
            push_sample(&mut boot.state.lock().cold().fetch_latencies, dt);
        }
        let kept = boot.take_fetch_latencies();
        assert!(kept.len() <= MAX_SAMPLES, "{} samples kept", kept.len());
        assert_eq!(kept.last(), Some(&(MAX_SAMPLES as u64)));
    }

    /// The cold part keeps only the counters of its own paths: a whole
    /// `BootStats` in it carried the five hot counters too (40 B more).
    #[test]
    fn the_cold_part_holds_only_cold_counters() {
        let size = std::mem::size_of::<ColdState>();
        assert!(
            size <= 336,
            "ColdState is {size} B, 376 with a whole `BootStats`"
        );
    }

    /// A client with no notify channel, depot, activation reports or swap
    /// windows, that bootstraps and renews three times, never allocates
    /// the cold part of its state.
    #[test]
    fn a_client_that_only_bootstraps_and_renews_never_allocates_its_cold_part() {
        use drivolution_core::pack::pack_driver;
        use drivolution_core::{
            ApiName, BinaryFormat, DriverId, DriverImage, DriverRecord, PermissionRule,
            RenewPolicy, DRIVOLUTION_PORT,
        };
        use drivolution_server::{attach_in_database, ServerConfig};

        let net = Network::new();
        let db = Arc::new(minidb::MiniDb::with_clock("orders", net.clock().clone()));
        let at = Addr::new("db1", DRIVOLUTION_PORT);
        let srv = attach_in_database(&net, db, at, ServerConfig::default()).unwrap();
        let v1 = DriverVersion::new(1, 0, 0);
        let image = pack_driver(BinaryFormat::Djar, &DriverImage::new("drv", v1, 1));
        let record = DriverRecord::new(DriverId(1), ApiName::rdbc(), BinaryFormat::Djar, image);
        srv.install_driver(&record.with_version(v1)).unwrap();
        let rule = PermissionRule::any(DriverId(1))
            .with_lease_ms(10_000)
            .with_policies(RenewPolicy::Renew, ExpirationPolicy::AfterCommit);
        srv.add_rule(&rule).unwrap();
        let config = BootloaderConfig::same_host()
            .trusting(srv.certificate())
            .with_lifecycle(crate::LifecyclePolicy::manual());
        let boot = Bootloader::new(&net, Addr::new("app", 1), config);
        let url = DbUrl::direct(Addr::new("db1", 5432), "orders");
        boot.bootstrap(&url, &ConnectProps::user("admin", "admin"))
            .unwrap();
        for _ in 0..3 {
            net.clock().advance_ms(10_000);
            assert_eq!(boot.poll(), PollOutcome::Renewed);
        }
        assert_eq!((boot.stats().downloads, boot.stats().renewals), (1, 3));
        assert!(boot.state.lock().cold.is_none(), "cold part allocated");
    }
}
