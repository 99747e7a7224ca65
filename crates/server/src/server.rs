//! The Drivolution server: answers bootstrap/renewal/extension requests,
//! stages and transfers driver files, enforces permissions and licenses,
//! and pushes upgrade notices (paper §3–§4).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;

use netsim::{Addr, Clock, NetError, Network, Pipe, Service, TaskControl};

use drivolution_core::proto::{DrvErrCode, DrvMsg, DrvOffer, DrvRequest};
use drivolution_core::{
    Certificate, ChunkingParams, DriverId, DriverRecord, DrvError, DrvNotice, DrvResult,
    PermissionRule, RenewPolicy, SigningKey, TransferMethod,
};
use drivolution_depot::ContentIndex;

use crate::assemble::Assembler;
use crate::directory::{ComplaintOutcome, MirrorDirectory};
use crate::grant::GrantMemo;
use crate::license::LicenseManager;
use crate::notify::NotifyHub;
use crate::offer::{OfferMeta, Staged};
use crate::rollout::RolloutOrchestrator;
use crate::store::DriverStore;

/// Cadence of the background maintenance task registered by
/// [`DrivolutionServer::register_maintenance`].
const MAINTENANCE_EVERY: Duration = Duration::from_secs(30);

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Renew policy when no rule overrides it.
    pub default_renew: RenewPolicy,
    /// Transfer method when the rule says `Any` (paper default: sealed).
    pub default_transfer: TransferMethod,
    /// Databases this server distributes drivers for; `None` = any.
    pub serves: Option<Vec<String>>,
    /// When set, offers carry signatures over the driver bytes.
    pub signing: Option<SigningKey>,
    /// Customize driver feature sets to request options (§5.4.1).
    pub customize: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            default_renew: RenewPolicy::Renew,
            default_transfer: TransferMethod::Sealed,
            serves: None,
            signing: None,
            customize: false,
        }
    }
}

/// Counters exposed for the benchmark harnesses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// `DRIVOLUTION_REQUEST`s handled.
    pub requests: u64,
    /// Offers sent (including same-driver renewals).
    pub offers: u64,
    /// Same-driver renewals among the offers.
    pub renewals: u64,
    /// `DRIVOLUTION_ERROR`s sent.
    pub errors: u64,
    /// Driver files served.
    pub files: u64,
    /// Total raw driver bytes served.
    pub file_bytes: u64,
    /// Offers answered as zero-transfer depot revalidations.
    pub revalidations: u64,
    /// Offers answered with a chunked delta plan.
    pub delta_offers: u64,
    /// `CHUNK_REQUEST`s served.
    pub chunk_requests: u64,
    /// Raw chunk bytes served.
    pub chunk_bytes: u64,
    /// `MIRROR_ANNOUNCE`s handled.
    pub mirror_announces: u64,
    /// `MIRROR_HEARTBEAT`s handled.
    pub mirror_heartbeats: u64,
    /// `MIRROR_COMPLAINT`s handled (corruption strikes recorded).
    pub mirror_complaints: u64,
    /// Mirrors demoted by corroborated complaint strikes.
    pub mirror_demotions: u64,
    /// `ACTIVATION_REPORT`s handled.
    pub activation_reports: u64,
    /// Failed activations among the reports.
    pub activation_failures: u64,
    /// Delta offers answered from the memoized plan cache.
    pub plan_hits: u64,
    /// Delta plans computed from scratch (cache misses).
    pub plan_misses: u64,
    /// `RENEW_BATCH` frames handled.
    pub batch_frames: u64,
    /// Renewal entries carried inside those batch frames (coalesced
    /// requests that did not cost an individual network round trip).
    pub batched_renewals: u64,
}

/// Events emitted by administrative operations — the replication hook the
/// cluster middleware subscribes to (§5.3.2: "When a new driver is added
/// to a Drivolution server, it is instantly replicated to other
/// Drivolution servers").
#[derive(Clone, Debug, PartialEq)]
pub enum AdminEvent {
    /// A driver row was inserted.
    DriverAdded(DriverRecord),
    /// A permission rule was inserted.
    RuleAdded(PermissionRule),
    /// A driver's permissions were expired.
    DriverExpired(DriverId),
}

type EventHook = Arc<dyn Fn(&AdminEvent) + Send + Sync>;

/// A Drivolution server instance. Bind it on the network with
/// [`netsim::Network::bind_arc`]; the in-database / external / standalone
/// variants differ only in the [`DriverStore`] executor behind it.
pub struct DrivolutionServer {
    name: String,
    pub(crate) store: DriverStore,
    pub(crate) config: ServerConfig,
    pub(crate) clock: Clock,
    pub(crate) cert: Certificate,
    pub(crate) licenses: LicenseManager,
    pub(crate) assembler: Assembler,
    hub: NotifyHub,
    pub(crate) depot: ContentIndex,
    pub(crate) directory: MirrorDirectory,
    pub(crate) state: Mutex<ServerState>,
}

/// Everything mutable about a server that no sub-component owns, behind
/// its one lock.
#[derive(Default)]
pub(crate) struct ServerState {
    /// Parked files by stage number, at most [`MAX_STAGED`](crate::offer::MAX_STAGED).
    pub(crate) staged: BTreeMap<u64, Staged>,
    pub(crate) stage_counter: u64,
    pub(crate) stats: ServerStats,
    rollout: Option<Arc<RolloutOrchestrator>>,
    /// Memoized per-driver offer metadata (content digest + signature),
    /// keyed by the served bytes themselves so direct SQL writes to the
    /// drivers table can never serve a stale digest: a hit requires the
    /// cached [`Bytes`] to match the record's, checked by pointer first
    /// and by content on reallocation.
    pub(crate) offer_meta: HashMap<DriverId, OfferMeta>,
    /// The grant statements' answers, kept until their tables change.
    pub(crate) grants: GrantMemo,
    hooks: Vec<EventHook>,
}

impl std::fmt::Debug for DrivolutionServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DrivolutionServer")
            .field("name", &self.name)
            .finish()
    }
}

impl DrivolutionServer {
    /// Creates a server over a store. `name` doubles as the certificate
    /// host for sealed transfers.
    pub fn new(
        name: impl Into<String>,
        store: DriverStore,
        clock: Clock,
        config: ServerConfig,
    ) -> Self {
        let name = name.into();
        let cert = Certificate::issue(name.clone(), 1);
        DrivolutionServer {
            name,
            store,
            licenses: LicenseManager::new(),
            config,
            directory: MirrorDirectory::new(clock.clone()),
            clock,
            cert,
            assembler: Assembler::new(),
            hub: NotifyHub::new(),
            depot: ContentIndex::new(),
            state: Mutex::default(),
        }
    }

    /// Server name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The certificate bootloaders must pin for sealed transfers.
    pub fn certificate(&self) -> &Certificate {
        &self.cert
    }

    /// The backing store (admin operations go through the server methods
    /// below so replication hooks fire).
    pub fn store(&self) -> &DriverStore {
        &self.store
    }

    /// The license manager (§5.4.2).
    pub fn licenses(&self) -> &LicenseManager {
        &self.licenses
    }

    /// The extension-package assembler (§5.4.1).
    pub fn assembler(&self) -> &Assembler {
        &self.assembler
    }

    /// Number of connected dedicated channels.
    pub fn channel_count(&self) -> usize {
        self.hub.len()
    }

    /// Snapshot of the protocol counters.
    pub fn stats(&self) -> ServerStats {
        self.state.lock().stats
    }

    /// The server's content-addressed depot index (installed driver
    /// images and their chunks).
    pub fn depot(&self) -> &ContentIndex {
        &self.depot
    }

    /// The chunking params the server's depot index pre-indexes
    /// installed drivers under (content-defined, the workspace default).
    /// Delta plans themselves are derived under each client's advertised
    /// params.
    pub fn depot_chunking(&self) -> ChunkingParams {
        ChunkingParams::default()
    }

    /// The mirror directory: every registered mirror with its zone,
    /// health, coverage, and load.
    pub fn mirror_directory(&self) -> &MirrorDirectory {
        &self.directory
    }

    /// Manually pins a depot mirror (`host:port`) into the directory.
    /// Pinned mirrors are exempt from heartbeat expiry; re-registering
    /// the same location is a no-op (no duplicate round-robin slots).
    /// Mirrors that can speak the announce protocol should use
    /// `MIRROR_ANNOUNCE` instead and get the full health lifecycle.
    pub fn register_mirror(&self, location: impl Into<String>) {
        self.directory.announce(&location.into(), None, true);
    }

    /// Attaches a staged-rollout orchestrator. While attached, every
    /// request touching one of its two managed drivers is resolved
    /// through [`RolloutOrchestrator::resolve`], so offers are
    /// version-targeted per wave membership and a halted rollout rolls
    /// clients back on their next renewal. The orchestrator's rollback
    /// hook is wired to an upgrade notice: a tripped health gate pushes
    /// `DRIVER_AVAILABLE` down every dedicated channel so clients
    /// re-renew (and start draining the failed version) immediately.
    pub fn attach_rollout(self: &Arc<Self>, rollout: Arc<RolloutOrchestrator>) {
        let weak = Arc::downgrade(self);
        rollout.on_rollback(move |database| {
            if let Some(srv) = weak.upgrade() {
                srv.notify_upgrade(database);
            }
        });
        self.state.lock().rollout = Some(rollout);
    }

    /// The attached rollout orchestrator, when it governs `database`.
    pub(crate) fn rollout_for(&self, database: &str) -> Option<Arc<RolloutOrchestrator>> {
        let attached = self.state.lock().rollout.clone();
        attached.filter(|ro| ro.database() == database)
    }

    /// Subscribes to admin events (replication hook).
    pub fn subscribe(&self, hook: EventHook) {
        self.state.lock().hooks.push(hook);
    }

    /// Runs every subscribed hook on `event`, with no lock held: a hook
    /// may call back into this server.
    fn emit(&self, event: AdminEvent) {
        let hooks = self.state.lock().hooks.clone();
        for h in &hooks {
            h(&event);
        }
    }

    // --- administrative operations (the DBA's single step, §3.2) -------

    /// Installs a driver row. One INSERT — the paper's entire upgrade
    /// procedure on the server side.
    ///
    /// # Errors
    ///
    /// Store failures (duplicate id, schema violations).
    pub fn install_driver(&self, record: &DriverRecord) -> DrvResult<()> {
        self.store.add_driver(record)?;
        self.depot
            .insert(record.binary.clone(), &self.depot_chunking());
        self.emit(AdminEvent::DriverAdded(record.clone()));
        Ok(())
    }

    /// Adds a permission rule.
    ///
    /// # Errors
    ///
    /// Store failures (unknown driver id).
    pub fn add_rule(&self, rule: &PermissionRule) -> DrvResult<()> {
        self.store.add_permission(rule)?;
        self.emit(AdminEvent::RuleAdded(rule.clone()));
        Ok(())
    }

    /// Expires a driver's permissions as of now.
    ///
    /// # Errors
    ///
    /// Store failures.
    pub fn expire_driver(&self, id: DriverId) -> DrvResult<u64> {
        let n = self
            .store
            .expire_driver(id, self.clock.now_ms() as i64 - 1)?;
        self.emit(AdminEvent::DriverExpired(id));
        Ok(n)
    }

    /// Applies a replicated admin event from a peer server without
    /// re-emitting it.
    ///
    /// # Errors
    ///
    /// Store failures.
    pub fn apply_replicated(&self, event: &AdminEvent) -> DrvResult<()> {
        match event {
            AdminEvent::DriverAdded(rec) => {
                self.depot
                    .insert(rec.binary.clone(), &self.depot_chunking());
                self.store.add_driver(rec)
            }
            AdminEvent::RuleAdded(rule) => self.store.add_permission(rule),
            AdminEvent::DriverExpired(id) => self
                .store
                .expire_driver(*id, self.clock.now_ms() as i64 - 1)
                .map(|_| ()),
        }
    }

    /// Pushes a "new driver available" notice down every dedicated
    /// channel, triggering immediate renewals (§3.2). Hosts whose channel
    /// turns out broken give their license seats back (§5.4.2).
    pub fn notify_upgrade(&self, database: &str) {
        let dead = self.hub.broadcast(&DrvNotice::DriverAvailable {
            database: database.to_string(),
        });
        for host in dead {
            self.licenses.release_host(&host);
        }
    }

    /// Reaps broken dedicated channels and frees their license seats
    /// (§5.4.2). Returns the number of freed seats.
    ///
    /// Runs on the maintenance cadence registered by
    /// [`register_maintenance`](Self::register_maintenance), never on the
    /// request path: `handle()` does zero ambient channel scans.
    pub fn detect_failures(&self) -> usize {
        self.hub
            .reap_closed()
            .iter()
            .map(|host| self.licenses.release_host(host))
            .sum()
    }

    /// Registers the server's background maintenance on the network's
    /// scheduler: expired license seats are pruned and broken dedicated
    /// channels reaped every 30 virtual seconds, instead of on every
    /// request. The deployment variants call this automatically. The
    /// task holds only a weak reference and retires itself once the
    /// server is dropped.
    pub fn register_maintenance(self: &Arc<Self>, net: &Network) {
        let me = Arc::downgrade(self);
        net.scheduler().every(
            MAINTENANCE_EVERY,
            Duration::ZERO,
            format!("server-maintenance:{}", self.name),
            move || {
                let Some(srv) = me.upgrade() else {
                    return Ok(TaskControl::Done);
                };
                srv.licenses.prune_expired(srv.clock.now_ms());
                srv.detect_failures();
                Ok(TaskControl::Continue)
            },
        );
    }

    // --- request handling ----------------------------------------------

    pub(crate) fn serves(&self, database: &str) -> bool {
        match &self.config.serves {
            None => true,
            Some(list) => list.iter().any(|d| d == database),
        }
    }

    /// One request, counted: the offer `handle_request` makes, with the
    /// request/offer/renewal accounting every caller shares.
    fn grant(&self, from: &Addr, req: &DrvRequest, advertise_only: bool) -> DrvResult<DrvOffer> {
        self.state.lock().stats.requests += 1;
        let offer = self.handle_request(from, req, advertise_only)?;
        let st = &mut self.state.lock().stats;
        st.offers += 1;
        if offer.same_driver {
            st.renewals += 1;
        }
        Ok(offer)
    }

    /// Handles one decoded protocol message (exposed for in-process
    /// embedding; the network path goes through [`Service::call`]). A
    /// bulk reply's payload is a slice of the frame `call` would return.
    pub fn handle(&self, from: &Addr, msg: DrvMsg) -> DrvMsg {
        match self.reply(from, &msg) {
            Reply::Msg(msg) => msg,
            Reply::Frame(frame) => DrvMsg::decode(frame).unwrap_or_else(|e| DrvMsg::error_from(&e)),
        }
    }

    /// The one place a reply is built, for `handle` and `call` alike.
    fn reply(&self, from: &Addr, msg: &DrvMsg) -> Reply {
        let result = match msg {
            DrvMsg::FileRequest {
                location,
                transfer_method,
            } => self
                .handle_file_request(location, *transfer_method)
                .map(Reply::Frame),
            DrvMsg::ChunkRequest {
                digests,
                transfer_method,
            } => self
                .handle_chunk_request(digests, *transfer_method)
                .map(Reply::Frame),
            control => self.handle_control(from, control).map(Reply::Msg),
        };
        result.unwrap_or_else(|e| {
            self.state.lock().stats.errors += 1;
            Reply::Msg(DrvMsg::error_from(&e))
        })
    }

    /// Every request but the two answered with a bulk frame; the call is
    /// one frame of the [`GrantMemo`].
    fn handle_control(&self, from: &Addr, msg: &DrvMsg) -> DrvResult<DrvMsg> {
        let reply = self.control_reply(from, msg);
        self.state.lock().grants.end_frame();
        reply
    }

    fn control_reply(&self, from: &Addr, msg: &DrvMsg) -> DrvResult<DrvMsg> {
        match msg {
            DrvMsg::Request(req) => self.grant(from, req, false).map(DrvMsg::Offer),
            DrvMsg::Discover(req) => self.grant(from, req, true).map(DrvMsg::Offer),
            DrvMsg::RenewBatch { entries } => {
                {
                    let st = &mut self.state.lock().stats;
                    st.batch_frames += 1;
                    st.batched_renewals += entries.len() as u64;
                }
                let mut replies = Vec::with_capacity(entries.len());
                for (host, req) in entries {
                    // License seats belong to the originating client, not
                    // the aggregator that forwarded the frame.
                    let origin = Addr::new(host.clone(), from.port());
                    replies.push(self.grant(&origin, req, false).map_err(|e| {
                        self.state.lock().stats.errors += 1;
                        (DrvErrCode::classify(&e), e.to_string())
                    }));
                }
                Ok(DrvMsg::OfferBatch { replies })
            }
            DrvMsg::Release { user, driver, .. } => {
                self.licenses.release(*driver, user, from.host());
                Ok(DrvMsg::ReleaseOk)
            }
            DrvMsg::MirrorAnnounce { location, zone } => {
                self.state.lock().stats.mirror_announces += 1;
                self.directory.announce(location, zone.clone(), false);
                Ok(DrvMsg::MirrorAck { known: true })
            }
            DrvMsg::MirrorHeartbeat {
                location,
                chunk_count,
                served_bytes,
                load,
                coverage,
            } => {
                self.state.lock().stats.mirror_heartbeats += 1;
                let known = self.directory.heartbeat(
                    location,
                    *chunk_count,
                    *served_bytes,
                    *load,
                    coverage,
                );
                Ok(DrvMsg::MirrorAck { known })
            }
            DrvMsg::MirrorComplaint { location, .. } => {
                let outcome = self.directory.complaint(location, from.host());
                {
                    let st = &mut self.state.lock().stats;
                    st.mirror_complaints += 1;
                    if outcome == ComplaintOutcome::Demoted {
                        st.mirror_demotions += 1;
                    }
                }
                Ok(DrvMsg::MirrorAck {
                    known: outcome != ComplaintOutcome::Unknown,
                })
            }
            DrvMsg::ActivationReport {
                database,
                driver,
                ok,
                ..
            } => {
                {
                    let st = &mut self.state.lock().stats;
                    st.activation_reports += 1;
                    if !ok {
                        st.activation_failures += 1;
                    }
                }
                if let Some(ro) = self.rollout_for(database) {
                    ro.report_activation(from.host(), *driver, *ok);
                }
                Ok(DrvMsg::ActivationAck)
            }
            other => Err(DrvError::Codec(format!(
                "unexpected client message {other:?}"
            ))),
        }
    }
}

/// A reply on its way out: a message still to encode, or a bulk frame
/// built around its envelope and never encoded again. Lives for one
/// return; a boxed message would cost every renewal an allocation.
#[allow(clippy::large_enum_variant)]
enum Reply {
    Msg(DrvMsg),
    Frame(Bytes),
}

impl Service for DrivolutionServer {
    fn call(&self, from: &Addr, request: Bytes) -> Result<Bytes, NetError> {
        let msg = DrvMsg::decode(request).map_err(|e| NetError::Protocol(e.to_string()))?;
        Ok(match self.reply(from, &msg) {
            Reply::Msg(msg) => msg.encode(),
            Reply::Frame(frame) => frame,
        })
    }

    fn accept_pipe(&self, from: &Addr, pipe: Pipe) -> Result<(), NetError> {
        self.hub.register(from.clone(), pipe);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::counting::{self, SqlCounts};
    use crate::store::EmbeddedExec;
    use drivolution_core::chunk::ChunkSet;
    use drivolution_core::pack::{pack_driver, unpack_driver};
    use drivolution_core::proto::RequestKind;
    use drivolution_core::{
        fnv1a64, transfer, ApiName, BinaryFormat, ChannelTrust, DriverImage, DriverVersion,
        ExpirationPolicy,
    };
    use minidb::MiniDb;
    use std::sync::atomic::Ordering::Relaxed;

    fn record(id: i64, proto: u16, version: DriverVersion) -> DriverRecord {
        let image = DriverImage::new(format!("drv-{id}"), version, proto);
        let bytes = pack_driver(BinaryFormat::Djar, &image);
        DriverRecord::new(DriverId(id), ApiName::rdbc(), BinaryFormat::Djar, bytes)
            .with_version(version)
    }

    fn server_with(config: ServerConfig) -> (DrivolutionServer, Clock) {
        let clock = Clock::simulated();
        let db = Arc::new(MiniDb::with_clock("orders", clock.clone()));
        let store = DriverStore::new(Box::new(EmbeddedExec::new(db)));
        store.install_schema().unwrap();
        let srv = DrivolutionServer::new("drv1", store, clock.clone(), config);
        (srv, clock)
    }

    fn client() -> Addr {
        Addr::new("app-host", 9)
    }

    fn bootstrap_req() -> DrvRequest {
        DrvRequest::bootstrap("orders", "app", "RDBC", "linux-x86_64")
    }

    fn expect_offer(msg: DrvMsg) -> DrvOffer {
        match msg {
            DrvMsg::Offer(o) => o,
            other => panic!("expected offer, got {other:?}"),
        }
    }

    #[test]
    fn bootstrap_request_offer_file_flow() {
        let (srv, _clock) = server_with(ServerConfig::default());
        srv.install_driver(&record(1, 1, DriverVersion::new(1, 0, 0)))
            .unwrap();
        let offer = expect_offer(srv.handle(&client(), DrvMsg::Request(bootstrap_req())));
        assert_eq!(offer.driver_id, DriverId(1));
        assert!(!offer.same_driver);
        assert_eq!(offer.transfer_method, TransferMethod::Sealed);
        assert!(offer.size > 0);

        // Download the file over the sealed channel.
        let reply = srv.handle(
            &client(),
            DrvMsg::FileRequest {
                location: offer.location.clone(),
                transfer_method: offer.transfer_method,
            },
        );
        let DrvMsg::FileData { payload } = reply else {
            panic!("{reply:?}")
        };
        let mut trust = ChannelTrust::new();
        trust.pin(srv.certificate());
        let raw = transfer::unwrap(offer.transfer_method, payload, &trust).unwrap();
        let image = unpack_driver(offer.format, raw).unwrap();
        assert_eq!(image.name, "drv-1");

        // The staged file is single-use.
        let again = srv.handle(
            &client(),
            DrvMsg::FileRequest {
                location: offer.location,
                transfer_method: offer.transfer_method,
            },
        );
        assert!(matches!(again, DrvMsg::Error { .. }));

        let st = srv.stats();
        assert_eq!(st.requests, 1);
        assert_eq!(st.offers, 1);
        assert_eq!(st.files, 1);
        assert_eq!(srv.store().lease_count().unwrap(), 1);
    }

    #[test]
    fn abandoned_offers_cannot_grow_the_staged_map() {
        use crate::offer::MAX_STAGED;
        let (srv, _clock) = server_with(ServerConfig::default());
        srv.install_driver(&record(1, 1, DriverVersion::new(1, 0, 0)))
            .unwrap();
        // A client that asks for offers and never fetches the files.
        let offers: Vec<DrvOffer> = (0..MAX_STAGED + 50)
            .map(|_| expect_offer(srv.handle(&client(), DrvMsg::Request(bootstrap_req()))))
            .collect();
        assert_eq!(srv.state.lock().staged.len(), MAX_STAGED);
        let fetch = |offer: &DrvOffer, transfer_method| {
            srv.handle(
                &client(),
                DrvMsg::FileRequest {
                    location: offer.location.clone(),
                    transfer_method,
                },
            )
        };
        // The oldest stages went first: their locations are unknown, and
        // the client asks again.
        let evicted = fetch(&offers[0], TransferMethod::Sealed);
        assert!(
            matches!(&evicted, DrvMsg::Error { message, .. } if message.contains("unknown location")),
            "{evicted:?}"
        );
        // The newest is kept through a request with the wrong method and
        // then fetched exactly once.
        let newest = offers.last().unwrap();
        let wrong = fetch(newest, TransferMethod::Plain);
        assert!(
            matches!(&wrong, DrvMsg::Error { message, .. } if message.contains("mismatch")),
            "{wrong:?}"
        );
        assert_eq!(srv.state.lock().staged.len(), MAX_STAGED);
        let served = fetch(newest, TransferMethod::Sealed);
        assert!(matches!(served, DrvMsg::FileData { .. }), "{served:?}");
        let again = fetch(newest, TransferMethod::Sealed);
        assert!(matches!(again, DrvMsg::Error { .. }), "{again:?}");
        assert_eq!(srv.state.lock().staged.len(), MAX_STAGED - 1);
    }

    #[test]
    fn unknown_database_gets_invalid_database_error() {
        let (srv, _c) = server_with(ServerConfig {
            serves: Some(vec!["orders".into()]),
            ..ServerConfig::default()
        });
        let mut req = bootstrap_req();
        req.database = "hr".into();
        let reply = srv.handle(&client(), DrvMsg::Request(req));
        let DrvMsg::Error { code, .. } = reply else {
            panic!()
        };
        assert_eq!(code, drivolution_core::proto::DrvErrCode::InvalidDatabase);
    }

    #[test]
    fn no_driver_yields_no_matching_driver_error() {
        let (srv, _c) = server_with(ServerConfig::default());
        let reply = srv.handle(&client(), DrvMsg::Request(bootstrap_req()));
        let DrvMsg::Error { code, message } = reply else {
            panic!()
        };
        assert_eq!(code, drivolution_core::proto::DrvErrCode::NoMatchingDriver);
        assert!(message.contains("RDBC"));
    }

    #[test]
    fn renewal_same_driver_offers_without_file() {
        let (srv, _c) = server_with(ServerConfig::default());
        srv.install_driver(&record(1, 1, DriverVersion::new(1, 0, 0)))
            .unwrap();
        let mut req = bootstrap_req();
        req.kind = RequestKind::Renewal {
            current: DriverId(1),
        };
        let offer = expect_offer(srv.handle(&client(), DrvMsg::Request(req)));
        assert!(offer.same_driver);
        assert!(offer.location.is_empty());
        assert_eq!(srv.stats().renewals, 1);
    }

    #[test]
    fn renewal_with_newer_driver_offers_upgrade() {
        let (srv, _c) = server_with(ServerConfig {
            default_renew: RenewPolicy::Upgrade,
            ..ServerConfig::default()
        });
        srv.install_driver(&record(1, 1, DriverVersion::new(1, 0, 0)))
            .unwrap();
        srv.install_driver(&record(2, 2, DriverVersion::new(2, 0, 0)))
            .unwrap();
        // Permission rules route everyone to driver 2 now.
        srv.add_rule(
            &PermissionRule::any(DriverId(2))
                .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit),
        )
        .unwrap();
        let mut req = bootstrap_req();
        req.kind = RequestKind::Renewal {
            current: DriverId(1),
        };
        let offer = expect_offer(srv.handle(&client(), DrvMsg::Request(req)));
        assert_eq!(offer.driver_id, DriverId(2));
        assert!(!offer.same_driver);
        assert!(!offer.location.is_empty());
    }

    #[test]
    fn renewal_under_revoke_policy_errors() {
        let (srv, _c) = server_with(ServerConfig::default());
        srv.install_driver(&record(1, 1, DriverVersion::new(1, 0, 0)))
            .unwrap();
        srv.add_rule(
            &PermissionRule::any(DriverId(1))
                .with_policies(RenewPolicy::Revoke, ExpirationPolicy::AfterClose),
        )
        .unwrap();
        let mut req = bootstrap_req();
        req.kind = RequestKind::Renewal {
            current: DriverId(1),
        };
        let reply = srv.handle(&client(), DrvMsg::Request(req));
        let DrvMsg::Error { code, .. } = reply else {
            panic!("{reply:?}")
        };
        assert_eq!(code, drivolution_core::proto::DrvErrCode::NoDriverAvailable);
    }

    #[test]
    fn permission_rules_carry_lease_policies_and_options() {
        let (srv, _c) = server_with(ServerConfig::default());
        srv.install_driver(&record(1, 1, DriverVersion::new(1, 0, 0)))
            .unwrap();
        srv.add_rule(
            &PermissionRule::any(DriverId(1))
                .with_lease_ms(60_000)
                .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::Immediate)
                .with_transfer(TransferMethod::Checksum)
                .with_options("fetch_size=100, lang=fr"),
        )
        .unwrap();
        let offer = expect_offer(srv.handle(&client(), DrvMsg::Request(bootstrap_req())));
        assert_eq!(offer.lease_ms, 60_000);
        assert_eq!(offer.renew_policy, RenewPolicy::Upgrade);
        assert_eq!(offer.expiration_policy, ExpirationPolicy::Immediate);
        assert_eq!(offer.transfer_method, TransferMethod::Checksum);
        assert_eq!(
            offer.options,
            vec![
                ("fetch_size".to_string(), "100".to_string()),
                ("lang".to_string(), "fr".to_string())
            ]
        );
    }

    #[test]
    fn signing_produces_verifiable_offers() {
        let key = SigningKey::from_seed(7);
        let vk = key.verifying_key();
        let (srv, _c) = server_with(ServerConfig {
            signing: Some(key),
            default_transfer: TransferMethod::Plain,
            ..ServerConfig::default()
        });
        srv.install_driver(&record(1, 1, DriverVersion::new(1, 0, 0)))
            .unwrap();
        let offer = expect_offer(srv.handle(&client(), DrvMsg::Request(bootstrap_req())));
        let sig = offer.signature.expect("signed offer");
        let reply = srv.handle(
            &client(),
            DrvMsg::FileRequest {
                location: offer.location,
                transfer_method: offer.transfer_method,
            },
        );
        let DrvMsg::FileData { payload } = reply else {
            panic!()
        };
        let raw = transfer::unwrap(TransferMethod::Plain, payload, &ChannelTrust::new()).unwrap();
        vk.verify(&raw, &sig).unwrap();
    }

    #[test]
    fn discover_advertises_without_staging_or_licensing() {
        let (srv, _c) = server_with(ServerConfig::default());
        srv.install_driver(&record(1, 1, DriverVersion::new(1, 0, 0)))
            .unwrap();
        srv.licenses().set_limit(DriverId(1), 1);
        // Discovers do not consume licenses or stage files, however many
        // arrive: nobody ever sends a FILE_REQUEST for an advertisement.
        for _ in 0..50 {
            let offer = expect_offer(srv.handle(&client(), DrvMsg::Discover(bootstrap_req())));
            assert!(offer.location.is_empty());
            assert_eq!(offer.driver_id, DriverId(1));
        }
        assert!(srv.state.lock().staged.is_empty());
        assert_eq!(srv.licenses().available(DriverId(1), 0), Some(1));
        assert_eq!(srv.store().lease_count().unwrap(), 0);
    }

    #[test]
    fn license_exhaustion_denies_offers() {
        let (srv, _c) = server_with(ServerConfig::default());
        srv.install_driver(&record(1, 1, DriverVersion::new(1, 0, 0)))
            .unwrap();
        srv.licenses().set_limit(DriverId(1), 1);
        let first = srv.handle(&Addr::new("h1", 1), DrvMsg::Request(bootstrap_req()));
        expect_offer(first);
        let second = srv.handle(&Addr::new("h2", 1), DrvMsg::Request(bootstrap_req()));
        let DrvMsg::Error { code, .. } = second else {
            panic!()
        };
        assert_eq!(code, drivolution_core::proto::DrvErrCode::PermissionDenied);
        // Release frees the seat.
        let rel = srv.handle(
            &Addr::new("h1", 1),
            DrvMsg::Release {
                database: "orders".into(),
                user: "app".into(),
                driver: DriverId(1),
            },
        );
        assert_eq!(rel, DrvMsg::ReleaseOk);
        expect_offer(srv.handle(&Addr::new("h2", 1), DrvMsg::Request(bootstrap_req())));
    }

    #[test]
    fn extension_request_serves_enriched_driver() {
        let (srv, _c) = server_with(ServerConfig {
            default_transfer: TransferMethod::Plain,
            ..ServerConfig::default()
        });
        srv.install_driver(&record(1, 1, DriverVersion::new(1, 0, 0)))
            .unwrap();
        srv.assembler().register(drivolution_core::Extension::Gis);
        let mut req = bootstrap_req();
        req.kind = RequestKind::Extension {
            base: DriverId(1),
            name: "gis".into(),
        };
        let offer = expect_offer(srv.handle(&client(), DrvMsg::Request(req)));
        let reply = srv.handle(
            &client(),
            DrvMsg::FileRequest {
                location: offer.location,
                transfer_method: offer.transfer_method,
            },
        );
        let DrvMsg::FileData { payload } = reply else {
            panic!()
        };
        let raw = transfer::unwrap(TransferMethod::Plain, payload, &ChannelTrust::new()).unwrap();
        let image = unpack_driver(offer.format, raw).unwrap();
        assert!(image.extension("gis").is_some());
    }

    #[test]
    fn customization_trims_feature_set() {
        let (srv, _c) = server_with(ServerConfig {
            customize: true,
            default_transfer: TransferMethod::Plain,
            ..ServerConfig::default()
        });
        // Base driver bundles French and German NLS.
        let mut image = DriverImage::new("fat", DriverVersion::new(1, 0, 0), 1);
        image.extensions = vec![
            drivolution_core::Extension::Nls {
                locale: "fr_FR".into(),
            },
            drivolution_core::Extension::Nls {
                locale: "de_DE".into(),
            },
        ];
        let bytes = pack_driver(BinaryFormat::Djar, &image);
        srv.install_driver(&DriverRecord::new(
            DriverId(1),
            ApiName::rdbc(),
            BinaryFormat::Djar,
            bytes,
        ))
        .unwrap();
        let mut req = bootstrap_req();
        req.options = vec![("locale".into(), "fr_FR".into())];
        let offer = expect_offer(srv.handle(&client(), DrvMsg::Request(req)));
        let reply = srv.handle(
            &client(),
            DrvMsg::FileRequest {
                location: offer.location,
                transfer_method: offer.transfer_method,
            },
        );
        let DrvMsg::FileData { payload } = reply else {
            panic!()
        };
        let raw = transfer::unwrap(TransferMethod::Plain, payload, &ChannelTrust::new()).unwrap();
        let custom = unpack_driver(offer.format, raw).unwrap();
        assert!(custom.extension("nls-fr_FR").is_some());
        assert!(custom.extension("nls-de_DE").is_none());
    }

    #[test]
    fn an_admin_hook_may_call_back_into_the_server() {
        let (srv, _c) = server_with(ServerConfig::default());
        let srv = Arc::new(srv);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (me, sink) = (Arc::downgrade(&srv), seen.clone());
        srv.subscribe(Arc::new(move |_| {
            if let Some(srv) = me.upgrade() {
                sink.lock()
                    .push((srv.stats().requests, srv.channel_count()));
            }
        }));
        srv.install_driver(&record(1, 1, DriverVersion::new(1, 0, 0)))
            .unwrap();
        assert_eq!(seen.lock().as_slice(), [(0, 0)]);
    }

    #[test]
    fn admin_events_fire_and_replication_does_not_loop() {
        let (srv, _c) = server_with(ServerConfig::default());
        let events: Arc<Mutex<Vec<AdminEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = events.clone();
        srv.subscribe(Arc::new(move |e| sink.lock().push(e.clone())));
        let rec = record(1, 1, DriverVersion::new(1, 0, 0));
        srv.install_driver(&rec).unwrap();
        srv.add_rule(&PermissionRule::any(DriverId(1))).unwrap();
        srv.expire_driver(DriverId(1)).unwrap();
        assert_eq!(events.lock().len(), 3);

        // Applying a replicated event must not re-emit.
        let (peer, _c2) = server_with(ServerConfig::default());
        let peer_events: Arc<Mutex<Vec<AdminEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = peer_events.clone();
        peer.subscribe(Arc::new(move |e| sink.lock().push(e.clone())));
        peer.apply_replicated(&AdminEvent::DriverAdded(rec))
            .unwrap();
        assert!(peer_events.lock().is_empty());
        assert_eq!(peer.store().records().unwrap().len(), 1);
    }

    #[test]
    fn have_with_exact_digest_gets_zero_transfer_revalidation() {
        let (srv, _c) = server_with(ServerConfig::default());
        let rec = record(1, 1, DriverVersion::new(1, 0, 0));
        srv.install_driver(&rec).unwrap();
        let digest = fnv1a64(&rec.binary);

        let mut req = bootstrap_req();
        req.have = Some(drivolution_core::HaveSummary {
            images: vec![digest],
            params: srv.depot_chunking(),
            base: None,
        });
        let offer = expect_offer(srv.handle(&client(), DrvMsg::Request(req)));
        assert_eq!(offer.content_digest, Some(digest));
        assert!(offer.location.is_empty(), "revalidation must not stage");
        assert!(offer.chunked.is_none());
        assert!(!offer.same_driver);
        assert_eq!(offer.size, rec.binary.len() as u64);
        let st = srv.stats();
        assert_eq!(st.revalidations, 1);
        assert_eq!(st.files, 0);
    }

    fn padded_record(id: i64, version: DriverVersion) -> DriverRecord {
        let image = DriverImage::new("drv-delta", version, 1);
        let bytes =
            drivolution_core::pack::pack_driver_padded(BinaryFormat::Djar, &image, 64 * 1024);
        DriverRecord::new(DriverId(id), ApiName::rdbc(), BinaryFormat::Djar, bytes)
            .with_version(version)
    }

    /// A server that published v1 and now serves only v2 (the rule
    /// grants driver 2): v1 is in its content index, so a client naming
    /// v1 as its base can be sent a delta.
    fn v1_published_v2_served() -> (DrivolutionServer, Clock, DriverRecord) {
        let (srv, clock) = server_with(ServerConfig::default());
        // v1 and v2 share the 64 KiB padding blob; only the image entry
        // differs (same encoded length, so chunk boundaries line up).
        let v1 = padded_record(1, DriverVersion::new(1, 0, 0));
        let v2 = padded_record(2, DriverVersion::new(2, 0, 0));
        assert_eq!(v1.binary.len(), v2.binary.len());
        srv.install_driver(&v1).unwrap();
        srv.install_driver(&v2).unwrap();
        srv.add_rule(&PermissionRule::any(DriverId(2))).unwrap();
        (srv, clock, v2)
    }

    /// The `HAVE` of a client whose depot holds v1.
    fn have_v1(srv: &DrivolutionServer) -> drivolution_core::HaveSummary {
        let v1 = fnv1a64(&padded_record(1, DriverVersion::new(1, 0, 0)).binary);
        drivolution_core::HaveSummary {
            images: vec![v1],
            params: srv.depot_chunking(),
            base: Some(v1),
        }
    }

    #[test]
    fn have_with_old_version_base_gets_delta_offer() {
        let (srv, _c, v2) = v1_published_v2_served();
        let mut req = bootstrap_req();
        req.have = Some(have_v1(&srv));
        let offer = expect_offer(srv.handle(&client(), DrvMsg::Request(req)));
        let plan = offer.chunked.expect("delta offer expected");
        assert!(offer.location.is_empty(), "delta must not stage a file");
        assert!(
            plan.missing.len() < plan.manifest.chunk_count() / 4,
            "only the edited chunks should travel: {}/{}",
            plan.missing.len(),
            plan.manifest.chunk_count()
        );
        assert_eq!(srv.stats().delta_offers, 1);

        // The missing chunks are servable via CHUNK_REQUEST.
        let reply = srv.handle(
            &client(),
            DrvMsg::ChunkRequest {
                digests: plan.missing.clone(),
                transfer_method: TransferMethod::Checksum,
            },
        );
        let DrvMsg::ChunkData { payload } = reply else {
            panic!("{reply:?}")
        };
        let raw = transfer::unwrap(
            TransferMethod::Checksum,
            payload,
            &drivolution_core::ChannelTrust::new(),
        )
        .unwrap();
        let set = ChunkSet::decode(raw).unwrap();
        assert_eq!(set.chunks.len(), plan.missing.len());
        assert!(srv.stats().chunk_bytes < v2.binary.len() as u64 / 4);
    }

    #[test]
    fn a_base_the_server_never_indexed_gets_a_staged_full_file() {
        // v1 was never published here: its digest names no chunk list.
        let (srv, _c) = server_with(ServerConfig::default());
        srv.install_driver(&padded_record(2, DriverVersion::new(2, 0, 0)))
            .unwrap();
        let mut req = bootstrap_req();
        req.have = Some(have_v1(&srv));
        let offer = expect_offer(srv.handle(&client(), DrvMsg::Request(req)));
        assert!(offer.chunked.is_none());
        assert!(!offer.location.is_empty(), "a full file is staged");
        let st = srv.stats();
        assert_eq!(st.delta_offers, 0);
        assert_eq!(st.revalidations, 0);
    }

    #[test]
    fn unknown_chunk_request_is_an_error() {
        let (srv, _c) = server_with(ServerConfig::default());
        let reply = srv.handle(
            &client(),
            DrvMsg::ChunkRequest {
                digests: vec![0xdead_beef],
                transfer_method: TransferMethod::Checksum,
            },
        );
        assert!(matches!(reply, DrvMsg::Error { .. }));
    }

    #[test]
    fn registered_mirrors_rank_into_delta_offers_and_rotate() {
        let (srv, _c, _v2) = v1_published_v2_served();
        srv.register_mirror("mirror1:1071");
        srv.register_mirror("mirror2:1071");

        let have = have_v1(&srv);
        let mut seen = Vec::new();
        for _ in 0..2 {
            let mut req = bootstrap_req();
            req.have = Some(have.clone());
            let offer = expect_offer(srv.handle(&client(), DrvMsg::Request(req)));
            seen.push(offer.chunked.unwrap().mirrors);
        }
        // Every plan carries both candidates; equal-rank mirrors rotate
        // so consecutive clients lead with different replicas.
        assert_eq!(seen[0].len(), 2);
        assert_eq!(seen[1].len(), 2);
        assert!(seen[0].iter().all(|m| m.healthy));
        assert_ne!(seen[0][0].location, seen[1][0].location);
    }

    #[test]
    fn duplicate_mirror_registration_does_not_duplicate_candidates() {
        // Regression: register_mirror used to push blindly into a Vec,
        // so re-registering a location gave it extra round-robin slots.
        let (srv, _c) = server_with(ServerConfig::default());
        srv.register_mirror("mirror1:1071");
        srv.register_mirror("mirror1:1071");
        srv.register_mirror("mirror2:1071");
        assert_eq!(srv.mirror_directory().len(), 2);
        let c = srv.mirror_directory().candidates(None, &[]);
        assert_eq!(c.len(), 2);
        assert_ne!(c[0].location, c[1].location);
    }

    #[test]
    fn announce_and_heartbeat_drive_the_directory_lifecycle() {
        use crate::directory::MirrorHealth;
        let (srv, clock) = server_with(ServerConfig::default());
        let from = Addr::new("mirror1", 1071);
        let reply = srv.handle(
            &from,
            DrvMsg::MirrorAnnounce {
                location: "mirror1:1071".into(),
                zone: Some("east".into()),
            },
        );
        assert_eq!(reply, DrvMsg::MirrorAck { known: true });

        // A heartbeat for an unknown mirror asks it to re-announce.
        let reply = srv.handle(
            &from,
            DrvMsg::MirrorHeartbeat {
                location: "ghost:1071".into(),
                chunk_count: 0,
                served_bytes: 0,
                load: 0,
                coverage: Vec::new(),
            },
        );
        assert_eq!(reply, DrvMsg::MirrorAck { known: false });

        // Silence past the quarantine threshold drops the mirror from
        // plans; a fresh heartbeat resurrects it.
        clock.advance_ms(16_000);
        assert_eq!(
            srv.mirror_directory().entry("mirror1:1071").unwrap().health,
            MirrorHealth::Quarantined
        );
        assert!(srv
            .mirror_directory()
            .candidates(Some("east"), &[])
            .is_empty());
        let reply = srv.handle(
            &from,
            DrvMsg::MirrorHeartbeat {
                location: "mirror1:1071".into(),
                chunk_count: 7,
                served_bytes: 4096,
                load: 2,
                coverage: vec![0x1, 0x2],
            },
        );
        assert_eq!(reply, DrvMsg::MirrorAck { known: true });
        let entry = srv.mirror_directory().entry("mirror1:1071").unwrap();
        assert_eq!(entry.health, MirrorHealth::Healthy);
        assert_eq!(entry.chunk_count, 7);
        let st = srv.stats();
        assert_eq!(st.mirror_announces, 1);
        assert_eq!(st.mirror_heartbeats, 2);
    }

    #[test]
    fn delta_offers_rank_same_zone_mirrors_first_for_zoned_clients() {
        let (srv, _c, _v2) = v1_published_v2_served();
        for (loc, zone) in [("m-east:1071", "east"), ("m-west:1071", "west")] {
            srv.handle(
                &client(),
                DrvMsg::MirrorAnnounce {
                    location: loc.into(),
                    zone: Some(zone.into()),
                },
            );
        }
        for (zone, want_first) in [("east", "m-east:1071"), ("west", "m-west:1071")] {
            let mut req = bootstrap_req();
            req.zone = Some(zone.into());
            req.have = Some(have_v1(&srv));
            let offer = expect_offer(srv.handle(&client(), DrvMsg::Request(req)));
            let plan = offer.chunked.expect("delta offer");
            assert_eq!(plan.mirrors[0].location, want_first, "zone {zone}");
            assert_eq!(plan.mirrors.len(), 2);
        }
    }

    #[test]
    fn rollout_orchestrator_targets_offers_per_wave_and_takes_reports() {
        use crate::rollout::{RolloutConfig, RolloutOrchestrator, RolloutPlan};

        let (srv, clock) = server_with(ServerConfig {
            default_renew: RenewPolicy::Upgrade,
            ..ServerConfig::default()
        });
        let srv = Arc::new(srv);
        srv.install_driver(&record(1, 1, DriverVersion::new(1, 0, 0)))
            .unwrap();
        srv.install_driver(&record(2, 2, DriverVersion::new(2, 0, 0)))
            .unwrap();
        let hosts: Vec<String> = (0..4).map(|i| format!("host{i}")).collect();
        let ro = Arc::new(RolloutOrchestrator::new(
            clock.clone(),
            "orders",
            DriverId(1),
            DriverId(2),
            &hosts,
            &RolloutPlan {
                canary: 1,
                wave_pcts: vec![50],
            },
            RolloutConfig::default(),
        ));
        srv.attach_rollout(ro.clone());

        // Only the canary's renewal upgrades; the rest keep driver 1 even
        // though driver 2 matches first.
        let renew = |host: &str| {
            let mut req = bootstrap_req();
            req.kind = RequestKind::Renewal {
                current: DriverId(1),
            };
            expect_offer(srv.handle(&Addr::new(host, 9), DrvMsg::Request(req)))
        };
        let canary_offer = renew("host0");
        assert_eq!(canary_offer.driver_id, DriverId(2));
        assert!(!canary_offer.same_driver);
        let held_offer = renew("host3");
        assert_eq!(held_offer.driver_id, DriverId(1));
        assert!(held_offer.same_driver, "held-back host renews in place");

        // The canary's activation report lands in the orchestrator and
        // the counters.
        let ack = srv.handle(
            &Addr::new("host0", 9),
            DrvMsg::ActivationReport {
                database: "orders".into(),
                driver: DriverId(2),
                version: Some(DriverVersion::new(2, 0, 0)),
                ok: true,
                detail: String::new(),
            },
        );
        assert_eq!(ack, DrvMsg::ActivationAck);
        assert_eq!(ro.status().waves[0].ok, 1);
        let st = srv.stats();
        assert_eq!(st.activation_reports, 1);
        assert_eq!(st.activation_failures, 0);
    }

    #[test]
    fn plain_renewal_never_touches_channel_state() {
        let (srv, _c) = server_with(ServerConfig::default());
        srv.install_driver(&record(1, 1, DriverVersion::new(1, 0, 0)))
            .unwrap();
        srv.licenses().set_limit(DriverId(1), 4);
        // A dedicated channel whose peer has gone away, still holding a
        // license seat.
        let (client_end, server_end) =
            Pipe::pair(Addr::new("crashed-host", 1), Addr::new("drv1", 1070));
        srv.hub.register(Addr::new("crashed-host", 1), server_end);
        expect_offer(srv.handle(
            &Addr::new("crashed-host", 1),
            DrvMsg::Request(bootstrap_req()),
        ));
        drop(client_end);

        // A plain renewal is matchmaking + licensing only: the broken
        // channel stays registered and its seat stays held, because
        // failure detection belongs to the maintenance task, not the
        // request path.
        let mut req = bootstrap_req();
        req.kind = RequestKind::Renewal {
            current: DriverId(1),
        };
        let offer = expect_offer(srv.handle(&client(), DrvMsg::Request(req)));
        assert!(offer.same_driver);
        assert_eq!(srv.hub.len(), 1, "handle() must not reap channels");
        assert_eq!(srv.licenses().available(DriverId(1), 0), Some(2));

        // The maintenance path reaps the channel and frees its seat.
        assert_eq!(srv.detect_failures(), 1);
        assert_eq!(srv.hub.len(), 0);
        assert_eq!(srv.licenses().available(DriverId(1), 0), Some(3));
    }

    #[test]
    fn renew_batch_grants_seats_to_entry_hosts_not_the_aggregator() {
        let (srv, _c) = server_with(ServerConfig::default());
        srv.install_driver(&record(1, 1, DriverVersion::new(1, 0, 0)))
            .unwrap();
        srv.licenses().set_limit(DriverId(1), 2);
        let renew_req = || {
            let mut req = bootstrap_req();
            req.kind = RequestKind::Renewal {
                current: DriverId(1),
            };
            req
        };
        let entries = vec![
            ("app0".to_string(), renew_req()),
            ("app1".to_string(), renew_req()),
            ("app2".to_string(), renew_req()),
        ];
        let reply = srv.handle(&Addr::new("aggregator", 7), DrvMsg::RenewBatch { entries });
        let DrvMsg::OfferBatch { replies } = reply else {
            panic!("expected offer batch, got {reply:?}")
        };
        assert_eq!(replies.len(), 3);
        for r in &replies[0..2] {
            let Ok(o) = r else {
                panic!("expected offer, got {r:?}")
            };
            assert!(o.same_driver);
        }
        let Err((code, _)) = &replies[2] else {
            panic!("third entry should exhaust the 2 seats")
        };
        assert_eq!(*code, DrvErrCode::PermissionDenied);
        // Seats belong to the per-entry client hosts, not the forwarding
        // aggregator's address.
        assert_eq!(
            srv.licenses().holders(DriverId(1)),
            vec![
                ("app".to_string(), "app0".to_string()),
                ("app".to_string(), "app1".to_string()),
            ]
        );
        let st = srv.stats();
        assert_eq!((st.batch_frames, st.batched_renewals), (1, 3));
        assert_eq!(
            (st.requests, st.offers, st.renewals, st.errors),
            (3, 2, 2, 1)
        );
    }

    /// The batch-equivalence world: drivers v1 and v2, rules that admit
    /// `app*` users only, three seats on v1, a rollout over `hosts` whose
    /// canary wave (the first four) is open, and a store that counts its
    /// statements.
    fn batch_world(hosts: &[String]) -> (Arc<DrivolutionServer>, Arc<SqlCounts>) {
        use crate::rollout::{RolloutConfig, RolloutOrchestrator, RolloutPlan};

        let clock = Clock::simulated();
        let (store, sql) = counting::store(Arc::new(MiniDb::with_clock("orders", clock.clone())));
        let config = ServerConfig {
            serves: Some(vec!["orders".into()]),
            ..ServerConfig::default()
        };
        let srv = Arc::new(DrivolutionServer::new("drv1", store, clock.clone(), config));
        for (id, major) in [(1, 1), (2, 2)] {
            srv.install_driver(&record(id, major as u16, DriverVersion::new(major, 0, 0)))
                .unwrap();
            srv.add_rule(&PermissionRule::any(DriverId(id)).for_user("app%"))
                .unwrap();
        }
        srv.licenses().set_limit(DriverId(1), 3);
        let plan = RolloutPlan {
            canary: 4,
            wave_pcts: vec![50],
        };
        srv.attach_rollout(Arc::new(RolloutOrchestrator::new(
            clock,
            "orders",
            DriverId(1),
            DriverId(2),
            hosts,
            &plan,
            RolloutConfig::default(),
        )));
        (srv, sql)
    }

    /// A `RENEW_BATCH` answers each entry exactly as that entry sent alone
    /// would be answered — offers, errors, stage locations, seats, lease
    /// log, counters — while asking Sample code 1 once per distinct
    /// question instead of once per entry.
    #[test]
    fn a_batch_answers_as_its_entries_sent_one_by_one() {
        let hosts: Vec<String> = (0..12).map(|i| format!("h{i:02}")).collect();
        let mut entries: Vec<(String, DrvRequest)> = hosts
            .iter()
            .enumerate()
            .map(|(i, host)| {
                // Two catalog questions: linux without preferences,
                // windows pinned to 2.0.0 (which only v2 satisfies).
                let (user, platform) = match (i % 5, i % 2) {
                    (4, 0) => ("guest", "linux-x86_64"),
                    (4, _) => ("guest", "windows-x64"),
                    (_, 0) => ("app", "linux-x86_64"),
                    _ => ("app", "windows-x64"),
                };
                let mut req = DrvRequest::bootstrap("orders", user, "RDBC", platform);
                if i % 2 == 1 {
                    req.preferred_version = Some(DriverVersion::new(2, 0, 0));
                }
                if i % 3 != 0 {
                    req.kind = RequestKind::Renewal {
                        current: DriverId(1),
                    };
                }
                (host.clone(), req)
            })
            .collect();
        entries.insert(
            5,
            (
                "h99".into(),
                DrvRequest::bootstrap("hr", "app", "RDBC", "linux-x86_64"),
            ),
        );
        let asked = entries.len() as u64 - 1;

        let (batched, batched_sql) = batch_world(&hosts);
        let reply = batched.handle(
            &Addr::new("aggregator", 7),
            DrvMsg::RenewBatch {
                entries: entries.clone(),
            },
        );
        let DrvMsg::OfferBatch { replies } = reply else {
            panic!("expected offer batch, got {reply:?}")
        };

        let (single, single_sql) = batch_world(&hosts);
        let one_by_one: Vec<_> = entries
            .iter()
            .map(|(host, req)| {
                match single.handle(&Addr::new(host.clone(), 7), DrvMsg::Request(req.clone())) {
                    DrvMsg::Offer(offer) => Ok(offer),
                    DrvMsg::Error { code, message } => Err((code, message)),
                    other => panic!("expected offer or error, got {other:?}"),
                }
            })
            .collect();
        assert_eq!(replies, one_by_one);

        // The frame exercised what it claims to: both rollout targets, a
        // denied user, seats running out, the unserved database.
        let offered = |id| {
            replies
                .iter()
                .any(|r| matches!(r, Ok(o) if o.driver_id == DriverId(id)))
        };
        assert!(offered(1) && offered(2), "{replies:?}");
        for code in [
            DrvErrCode::NoMatchingDriver,
            DrvErrCode::PermissionDenied,
            DrvErrCode::InvalidDatabase,
        ] {
            assert!(
                replies
                    .iter()
                    .any(|r| matches!(r, Err((c, _)) if *c == code)),
                "no {code:?} in {replies:?}"
            );
        }

        let frame_free = |st: ServerStats| ServerStats {
            batch_frames: 0,
            batched_renewals: 0,
            ..st
        };
        assert_eq!(frame_free(batched.stats()), single.stats());
        for id in [DriverId(1), DriverId(2)] {
            assert_eq!(
                batched.licenses().holders(id),
                single.licenses().holders(id)
            );
        }
        assert_eq!(
            batched.store().lease_count().unwrap(),
            single.store().lease_count().unwrap()
        );
        assert_eq!(batched_sql.sample_code_1.load(Relaxed), 2);
        assert_eq!(single_sql.sample_code_1.load(Relaxed), asked);
    }

    /// Over an executor that reports stamps, a `RENEW_BATCH` whose tables
    /// did not change since the last one asks nothing but the lease log:
    /// 64 entries, 64 statements.
    #[test]
    fn a_second_identical_batch_runs_only_its_lease_inserts() {
        let clock = Clock::simulated();
        let db = Arc::new(MiniDb::with_clock("orders", clock.clone()));
        let (store, sql) = counting::with_stamps(db, true);
        let srv = DrivolutionServer::new("drv1", store, clock, ServerConfig::default());
        srv.install_driver(&record(1, 1, DriverVersion::new(1, 0, 0)))
            .unwrap();
        srv.add_rule(&PermissionRule::any(DriverId(1))).unwrap();
        let mut req = bootstrap_req();
        req.kind = RequestKind::Renewal {
            current: DriverId(1),
        };
        let entries: Vec<(String, DrvRequest)> =
            (0..64).map(|i| (format!("app{i}"), req.clone())).collect();
        let batch = || {
            sql.all.store(0, Relaxed);
            let reply = srv.handle(
                &Addr::new("aggregator", 7),
                DrvMsg::RenewBatch {
                    entries: entries.clone(),
                },
            );
            (reply, sql.all.load(Relaxed))
        };
        let (first, cold) = batch();
        let (second, warm) = batch();
        assert_eq!(first, second);
        // The window, Sample code 1, then per entry Sample code 2 and
        // the lease INSERT.
        assert_eq!(cold, 2 + 64 * 2);
        assert_eq!(warm, 64);
        assert_eq!(srv.store().lease_count().unwrap(), 128);
    }

    #[test]
    fn memory_and_sql_match_paths_agree_through_server() {
        let (srv, clock) = server_with(ServerConfig::default());
        srv.install_driver(&record(1, 1, DriverVersion::new(1, 0, 0)))
            .unwrap();
        srv.install_driver(&record(2, 2, DriverVersion::new(2, 0, 0)))
            .unwrap();
        srv.add_rule(&PermissionRule::any(DriverId(2)).for_user("app"))
            .unwrap();
        let req = bootstrap_req();
        let offer = expect_offer(srv.handle(&client(), DrvMsg::Request(req.clone())));
        assert_eq!(offer.driver_id, DriverId(2));
        // The in-memory reference engine picks the same driver from the
        // same records and rules.
        let reference = drivolution_core::matching::find_driver(
            &srv.store().records().unwrap(),
            &srv.store().rules().unwrap(),
            &srv.query_of(&client(), &req),
            clock.now_ms() as i64,
        )
        .unwrap()
        .record
        .id;
        assert_eq!(reference, offer.driver_id);
    }
}
