//! Read-only depot replicas that take bulk chunk traffic off the
//! primary Drivolution server.

use std::sync::{Arc, Weak};
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;

use netsim::{Addr, NetError, Network, Service, TaskControl, TaskHandle};

use drivolution_core::chunk::ChunkingParams;
use drivolution_core::proto::{DrvMsg, MAX_HEARTBEAT_COVERAGE};
use drivolution_core::{Certificate, ChannelTrust, DrvError, DrvResult, TransferMethod};

use crate::exchange::{fetch_chunks, serve_chunks};
use crate::index::ContentIndex;

/// Heartbeat cadence of every mirror, and the beat the primary's
/// directory expects: it marks an entry overdue after two missed beats,
/// so a mirror on a healthy network never goes overdue. One constant for
/// both halves of that contract.
pub const HEARTBEAT_EVERY: Duration = Duration::from_secs(5);

/// Retry cadence for the launch announce when the primary is not up
/// yet; the retry task retires itself on the first success.
const ANNOUNCE_RETRY: Duration = Duration::from_secs(2);

/// Counters exposed by [`MirrorDepot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MirrorStats {
    /// `CHUNK_REQUEST`s answered.
    pub chunk_requests: u64,
    /// Chunks served from the local replica.
    pub chunks_served: u64,
    /// Raw chunk bytes served.
    pub chunk_bytes_served: u64,
    /// Chunks pulled read-through from the primary on a local miss.
    pub read_through_chunks: u64,
    /// `MIRROR_ANNOUNCE`s sent to the primary.
    pub announces: u64,
    /// `MIRROR_HEARTBEAT`s sent to the primary.
    pub heartbeats: u64,
}

/// A read-only depot replica on the simulated network.
///
/// Mirrors serve `CHUNK_REQUEST`s from a local [`ContentIndex`] and fill
/// misses read-through from the primary server, so the primary's
/// matchmaking/lease path never carries bulk transfer for mirrored
/// content more than once. Content addressing makes staleness impossible:
/// a chunk digest either resolves to the right bytes or to nothing.
///
/// Mirrors register themselves: [`launch`](Self::launch) sends a
/// `MIRROR_ANNOUNCE` (location and zone) to the primary and registers
/// its own lifecycle tasks on the network's
/// [`Scheduler`](netsim::Scheduler): a periodic heartbeat reporting
/// liveness, chunk coverage, served bytes, and load, plus — when the
/// launch announce could not reach the primary — an announce-retry task
/// that retires itself on first success. Nobody has to remember to call
/// [`heartbeat`](Self::heartbeat) by hand; pumping
/// [`Network::run_until`](netsim::Network::run_until) drives it. A
/// mirror that stops heartbeating (crashed, partitioned, or
/// [`pause_lifecycle`](Self::pause_lifecycle)d for a controlled restart)
/// is quarantined out of chunk plans.
pub struct MirrorDepot {
    net: Network,
    addr: Addr,
    primary: Addr,
    cert: Certificate,
    index: ContentIndex,
    state: Mutex<MirrorState>,
}

#[derive(Default)]
struct MirrorState {
    stats: MirrorStats,
    /// `chunk_requests` value at the previous heartbeat; the next
    /// heartbeat reports the delta as its load signal.
    last_reported_requests: u64,
    heartbeat: Option<TaskHandle>,
    announce_retry: Option<TaskHandle>,
}

impl std::fmt::Debug for MirrorDepot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MirrorDepot")
            .field("addr", &self.addr)
            .field("primary", &self.primary)
            .field("chunks", &self.index.chunk_count())
            .finish()
    }
}

impl Drop for MirrorDepot {
    /// Cancels the lifecycle tasks so a torn-down mirror does not leave
    /// entries in the scheduler's table (a paused task never fires, so
    /// it would never notice its weak reference died).
    fn drop(&mut self) {
        self.each_task(TaskHandle::cancel);
    }
}

impl MirrorDepot {
    /// Creates a mirror bound at `addr`, replicating from `primary`.
    ///
    /// # Errors
    ///
    /// [`NetError::AddrInUse`] when `addr` is taken.
    pub fn launch(net: &Network, addr: Addr, primary: Addr) -> Result<Arc<Self>, NetError> {
        let mirror = Arc::new(MirrorDepot {
            net: net.clone(),
            addr: addr.clone(),
            primary,
            cert: Certificate::issue(addr.host(), u64::from(addr.port())),
            index: ContentIndex::new(),
            state: Mutex::default(),
        });
        net.bind_arc(addr, mirror.clone())?;
        // Self-announce, then hand all further lifecycle beats to the
        // scheduler. The launch announce is best-effort: the primary may
        // not be up yet (or may predate the announce protocol); the
        // announce-retry task keeps trying until it gets through, and a
        // later heartbeat answered `known: false` re-announces too.
        let announced = mirror.announce().is_ok();
        mirror.register_lifecycle(announced);
        Ok(mirror)
    }

    /// Registers the heartbeat task (and, unless the launch announce
    /// already succeeded, the announce-retry task) on the network's
    /// scheduler.
    fn register_lifecycle(self: &Arc<Self>, announced: bool) {
        let sched = self.net.scheduler();
        let location = self.location();
        let me = Arc::downgrade(self);
        let heartbeat = sched.every(
            HEARTBEAT_EVERY,
            Duration::ZERO,
            format!("mirror-heartbeat {location}"),
            move || match Weak::upgrade(&me) {
                Some(m) => m
                    .heartbeat()
                    .map(|()| TaskControl::Continue)
                    .map_err(|e| e.to_string()),
                None => Ok(TaskControl::Done),
            },
        );
        let announce_retry = (!announced).then(|| {
            let me = Arc::downgrade(self);
            sched.every(
                ANNOUNCE_RETRY,
                Duration::ZERO,
                format!("mirror-announce {}", self.location()),
                move || match Weak::upgrade(&me) {
                    Some(m) => match m.announce() {
                        Ok(()) => Ok(TaskControl::Done),
                        Err(e) => Err(e.to_string()),
                    },
                    None => Ok(TaskControl::Done),
                },
            )
        });
        let mut st = self.state.lock();
        st.heartbeat = Some(heartbeat);
        st.announce_retry = announce_retry;
    }

    /// Handle to the scheduler-registered heartbeat task: its error
    /// counters are the per-mirror heartbeat-failure ledger fleets
    /// report, and cancelling it simulates a mirror whose lifecycle
    /// driving died while the replica still serves.
    pub fn heartbeat_task(&self) -> Option<TaskHandle> {
        self.state.lock().heartbeat.clone()
    }

    /// Takes this mirror's lifecycle tasks off the schedule (a
    /// controlled shutdown, e.g. a controller restart). The directory
    /// will see silence and walk the entry overdue→quarantined.
    pub fn pause_lifecycle(&self) {
        self.each_task(TaskHandle::pause);
    }

    /// Resumes paused lifecycle tasks after a restart.
    pub fn resume_lifecycle(&self) {
        self.each_task(TaskHandle::resume);
    }

    fn each_task(&self, apply: fn(&TaskHandle)) {
        let st = self.state.lock();
        let all = st.heartbeat.iter().chain(&st.announce_retry);
        all.for_each(apply);
    }

    /// The zone this mirror is placed in under the network's current
    /// topology, if any.
    pub fn zone(&self) -> Option<String> {
        self.net.zone_of(self.addr.host())
    }

    fn exchange_directory(&self, msg: DrvMsg) -> DrvResult<bool> {
        let reply = self
            .net
            .request(&self.addr, &self.primary, msg.encode())
            .map_err(|e| DrvError::Net(format!("mirror directory exchange: {e}")))?;
        match DrvMsg::decode(reply)? {
            DrvMsg::MirrorAck { known } => Ok(known),
            other => Err(other.unexpected("directory")),
        }
    }

    /// Announces this mirror (location and zone) to the primary's mirror
    /// directory.
    ///
    /// # Errors
    ///
    /// Network failures reaching the primary, or a primary that does not
    /// speak the announce protocol.
    pub fn announce(&self) -> DrvResult<()> {
        self.state.lock().stats.announces += 1;
        self.exchange_directory(DrvMsg::MirrorAnnounce {
            location: self.location(),
            zone: self.zone(),
        })?;
        Ok(())
    }

    /// Sends one heartbeat: liveness plus chunk coverage, cumulative
    /// served bytes, and the number of requests served since the last
    /// heartbeat. When the primary answers `known: false` (this mirror
    /// was evicted or the server restarted), re-announces and retries
    /// once.
    ///
    /// # Errors
    ///
    /// Network failures reaching the primary.
    pub fn heartbeat(&self) -> DrvResult<()> {
        let (msg, requests_snapshot) = {
            let mut st = self.state.lock();
            st.stats.heartbeats += 1;
            let load = st
                .stats
                .chunk_requests
                .saturating_sub(st.last_reported_requests)
                .min(u64::from(u32::MAX)) as u32;
            // Coverage: sorted for determinism, capped (it is a ranking
            // hint; past the cap the directory sees partial coverage).
            let mut coverage = self.index.chunk_digests();
            coverage.sort_unstable();
            coverage.truncate(MAX_HEARTBEAT_COVERAGE);
            (
                DrvMsg::MirrorHeartbeat {
                    location: self.location(),
                    chunk_count: self.index.chunk_count() as u64,
                    served_bytes: st.stats.chunk_bytes_served,
                    load,
                    coverage,
                },
                st.stats.chunk_requests,
            )
        };
        if !self.exchange_directory(msg.clone())? {
            self.announce()?;
            self.exchange_directory(msg)?;
        }
        // Only a delivered heartbeat consumes the interval: a failed
        // send keeps the load attributable to the next beat instead of
        // silently dropping it.
        self.state.lock().last_reported_requests = requests_snapshot;
        Ok(())
    }

    /// The mirror's address.
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// The mirror's location string as carried in offers (`host:port`).
    pub fn location(&self) -> String {
        format!("{}:{}", self.addr.host(), self.addr.port())
    }

    /// The certificate bootloaders must pin to accept sealed chunk
    /// transfers from this mirror.
    pub fn certificate(&self) -> &Certificate {
        &self.cert
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MirrorStats {
        self.state.lock().stats
    }

    /// Number of replicated chunks.
    pub fn chunk_count(&self) -> usize {
        self.index.chunk_count()
    }

    /// Warms the replica with a full image (e.g. pushed alongside driver
    ///-table replication in a cluster), chunked under `params` — use the
    /// primary's params so preloaded chunks match the digests its offers
    /// reference.
    pub fn preload(&self, bytes: Bytes, params: &ChunkingParams) -> u64 {
        self.index.insert(bytes, params)
    }

    /// Read-through: pulls the chunks of `digests` the replica lacks
    /// from the primary.
    fn fetch_missing_from_primary(&self, digests: &[u64]) -> DrvResult<()> {
        let missing: Vec<u64> = digests
            .iter()
            .copied()
            .filter(|d| self.index.chunk(*d).is_none())
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        let method = TransferMethod::Checksum;
        let chunks = fetch_chunks(&missing, method, &ChannelTrust::new(), |frame| {
            self.net
                .request(&self.addr, &self.primary, frame)
                .map_err(|e| DrvError::Net(format!("mirror read-through: {e}")))
        })?;
        let mut pulled = 0;
        for (digest, bytes) in chunks {
            if self.index.put_chunk(digest, bytes) {
                pulled += 1;
            }
        }
        self.state.lock().stats.read_through_chunks += pulled;
        Ok(())
    }

    fn handle_chunk_request(&self, digests: &[u64], method: TransferMethod) -> DrvResult<Bytes> {
        self.fetch_missing_from_primary(digests)?;
        let method = method.resolve(TransferMethod::Checksum);
        let (reply, set) = serve_chunks(&self.index, digests, method, &self.cert)?;
        let st = &mut self.state.lock().stats;
        st.chunk_requests += 1;
        st.chunks_served += set.chunks.len() as u64;
        st.chunk_bytes_served += set.payload_bytes();
        Ok(reply)
    }
}

impl Service for MirrorDepot {
    fn call(&self, _from: &Addr, request: Bytes) -> Result<Bytes, NetError> {
        let msg = DrvMsg::decode(request).map_err(|e| NetError::Protocol(e.to_string()))?;
        let reply = match msg {
            DrvMsg::ChunkRequest {
                digests,
                transfer_method,
            } => self.handle_chunk_request(&digests, transfer_method),
            other => Err(DrvError::Codec(format!(
                "mirror depots only serve CHUNK_REQUEST, got {other:?}"
            ))),
        };
        Ok(reply.unwrap_or_else(|e| DrvMsg::error_from(&e).encode()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drivolution_core::chunk::{split_with, ChunkManifest, ChunkSet, ChunkingParams};
    use drivolution_core::transfer;
    use netsim::FnService;

    fn image(len: usize, seed: u8) -> Bytes {
        Bytes::from(
            (0..len)
                .map(|i| ((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as u8 ^ seed)
                .collect::<Vec<u8>>(),
        )
    }

    /// A stand-in primary that serves chunks of one image.
    fn bind_primary(net: &Network, addr: Addr, img: &Bytes, chunk_size: u32) {
        let index = ContentIndex::new();
        index.insert(img.clone(), &ChunkingParams::fixed(chunk_size));
        net.bind(
            addr,
            FnService::new(move |_from, req| {
                let msg = DrvMsg::decode(req).map_err(|e| NetError::Protocol(e.to_string()))?;
                let DrvMsg::ChunkRequest { digests, .. } = msg else {
                    return Err(NetError::Protocol("unexpected".into()));
                };
                let chunks: Vec<(u64, Bytes)> = digests
                    .iter()
                    .filter_map(|d| index.chunk(*d).map(|b| (*d, b)))
                    .collect();
                let raw = ChunkSet { chunks }.encode();
                let payload = transfer::wrap(TransferMethod::Checksum, &raw, None).unwrap();
                Ok(DrvMsg::ChunkData { payload }.encode())
            }),
        )
        .unwrap();
    }

    #[test]
    fn mirror_serves_preloaded_and_read_through_chunks() {
        let net = Network::new();
        let img = image(8192, 1);
        let manifest = ChunkManifest::of(&img, 1024);
        let primary = Addr::new("srv", 1070);
        bind_primary(&net, primary.clone(), &img, 1024);

        let mirror = MirrorDepot::launch(&net, Addr::new("mirror1", 1071), primary).unwrap();
        // Preload half the chunks; the rest come read-through.
        let parts = split_with(&img, &ChunkingParams::fixed(1024));
        for (d, b) in manifest.chunks.iter().zip(&parts).take(4) {
            assert!(mirror.index.put_chunk(*d, b.clone()));
        }

        let client = Addr::new("app", 1);
        let reply = net
            .request(
                &client,
                mirror.addr(),
                DrvMsg::ChunkRequest {
                    digests: manifest.chunks.clone(),
                    transfer_method: TransferMethod::Checksum,
                }
                .encode(),
            )
            .unwrap();
        let DrvMsg::ChunkData { payload } = DrvMsg::decode(reply).unwrap() else {
            panic!()
        };
        let raw = transfer::unwrap(
            TransferMethod::Checksum,
            payload,
            &drivolution_core::ChannelTrust::new(),
        )
        .unwrap();
        let set = ChunkSet::decode(raw).unwrap();
        assert_eq!(set.chunks.len(), 8);
        let st = mirror.stats();
        assert_eq!(st.chunk_requests, 1);
        assert_eq!(st.read_through_chunks, 4);
        // A second identical request is served without touching the
        // primary again.
        let before = net.stats().for_addr(&Addr::new("srv", 1070)).requests;
        net.request(
            &client,
            mirror.addr(),
            DrvMsg::ChunkRequest {
                digests: manifest.chunks.clone(),
                transfer_method: TransferMethod::Checksum,
            }
            .encode(),
        )
        .unwrap();
        assert_eq!(
            net.stats().for_addr(&Addr::new("srv", 1070)).requests,
            before
        );
    }

    #[test]
    fn mirror_announces_and_heartbeats_to_the_primary() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let net = Network::new();
        net.with_topology(|t| t.place("mirror1", "east"));
        // Stand-in primary that records directory messages and answers
        // with a configurable `known` flag.
        let seen: Arc<Mutex<Vec<DrvMsg>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let known = Arc::new(AtomicBool::new(true));
        let k = known.clone();
        net.bind(
            Addr::new("srv", 1070),
            FnService::new(move |_f, req| {
                let msg = DrvMsg::decode(req).map_err(|e| NetError::Protocol(e.to_string()))?;
                sink.lock().push(msg);
                Ok(DrvMsg::MirrorAck {
                    known: k.load(Ordering::SeqCst),
                }
                .encode())
            }),
        )
        .unwrap();

        let mirror =
            MirrorDepot::launch(&net, Addr::new("mirror1", 1071), Addr::new("srv", 1070)).unwrap();
        // Launch self-announced, carrying the topology zone.
        {
            let msgs = seen.lock();
            assert_eq!(msgs.len(), 1);
            assert!(matches!(
                &msgs[0],
                DrvMsg::MirrorAnnounce { location, zone }
                    if location == "mirror1:1071" && zone.as_deref() == Some("east")
            ));
        }
        mirror.heartbeat().unwrap();
        assert!(matches!(
            seen.lock().last().unwrap(),
            DrvMsg::MirrorHeartbeat { .. }
        ));

        // A heartbeat answered `known: false` re-announces and retries.
        known.store(false, Ordering::SeqCst);
        mirror.heartbeat().unwrap();
        {
            let msgs = seen.lock();
            let tail: Vec<&DrvMsg> = msgs.iter().rev().take(3).collect();
            assert!(matches!(tail[0], DrvMsg::MirrorHeartbeat { .. }));
            assert!(matches!(tail[1], DrvMsg::MirrorAnnounce { .. }));
            assert!(matches!(tail[2], DrvMsg::MirrorHeartbeat { .. }));
        }
        let st = mirror.stats();
        assert_eq!(st.announces, 2);
        assert_eq!(st.heartbeats, 2);
    }

    #[test]
    fn heartbeat_reports_coverage_and_load_delta() {
        let net = Network::new();
        let img = image(4096, 1);
        let manifest = ChunkManifest::of(&img, 1024);
        let primary = Addr::new("srv", 1070);
        bind_primary(&net, primary.clone(), &img, 1024);
        let mirror = MirrorDepot::launch(&net, Addr::new("mirror1", 1071), primary).unwrap();
        mirror.preload(img, &ChunkingParams::fixed(1024));

        // Serve one request, then inspect what the heartbeat reports by
        // swapping in a recording primary.
        net.request(
            &Addr::new("app", 1),
            mirror.addr(),
            DrvMsg::ChunkRequest {
                digests: manifest.chunks.clone(),
                transfer_method: TransferMethod::Checksum,
            }
            .encode(),
        )
        .unwrap();
        net.unbind(&Addr::new("srv", 1070));
        let seen: Arc<Mutex<Vec<DrvMsg>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        net.bind(
            Addr::new("srv", 1070),
            FnService::new(move |_f, req| {
                sink.lock()
                    .push(DrvMsg::decode(req).map_err(|e| NetError::Protocol(e.to_string()))?);
                Ok(DrvMsg::MirrorAck { known: true }.encode())
            }),
        )
        .unwrap();
        mirror.heartbeat().unwrap();
        mirror.heartbeat().unwrap();
        let msgs = seen.lock();
        let DrvMsg::MirrorHeartbeat {
            chunk_count,
            served_bytes,
            load,
            ..
        } = &msgs[0]
        else {
            panic!("{:?}", msgs[0]);
        };
        assert_eq!(*chunk_count, 4);
        assert!(*served_bytes > 0);
        assert_eq!(*load, 1, "first beat reports the served request");
        let DrvMsg::MirrorHeartbeat { load, .. } = &msgs[1] else {
            panic!()
        };
        assert_eq!(*load, 0, "load is a per-interval delta");
        drop(msgs);

        // A heartbeat that fails to reach the primary must not consume
        // the interval: the served request stays attributable to the
        // next successful beat.
        net.request(
            &Addr::new("app", 1),
            mirror.addr(),
            DrvMsg::ChunkRequest {
                digests: manifest.chunks.clone(),
                transfer_method: TransferMethod::Checksum,
            }
            .encode(),
        )
        .unwrap();
        net.with_faults(|f| f.take_down("srv"));
        assert!(mirror.heartbeat().is_err());
        net.with_faults(|f| f.restore("srv"));
        mirror.heartbeat().unwrap();
        let msgs = seen.lock();
        let DrvMsg::MirrorHeartbeat { load, .. } = msgs.last().unwrap() else {
            panic!()
        };
        assert_eq!(*load, 1, "failed beat must not swallow the interval");
    }

    #[test]
    fn scheduler_drives_heartbeats_without_manual_calls() {
        let net = Network::new();
        let seen: Arc<Mutex<Vec<DrvMsg>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        net.bind(
            Addr::new("srv", 1070),
            FnService::new(move |_f, req| {
                sink.lock()
                    .push(DrvMsg::decode(req).map_err(|e| NetError::Protocol(e.to_string()))?);
                Ok(DrvMsg::MirrorAck { known: true }.encode())
            }),
        )
        .unwrap();
        let mirror =
            MirrorDepot::launch(&net, Addr::new("mirror1", 1071), Addr::new("srv", 1070)).unwrap();
        // Launch announced and registered the heartbeat task; nobody
        // calls heartbeat() — the pump does.
        net.run_until(26_000);
        let st = mirror.stats();
        assert_eq!(st.announces, 1);
        assert_eq!(st.heartbeats, 5, "one beat per default 5s interval");
        let task = mirror.heartbeat_task().unwrap();
        assert_eq!(task.stats().runs, 5);
        assert_eq!(task.stats().errors, 0);
        assert!(seen
            .lock()
            .iter()
            .skip(1)
            .all(|m| matches!(m, DrvMsg::MirrorHeartbeat { .. })));

        // A paused lifecycle goes silent; resuming picks back up.
        mirror.pause_lifecycle();
        net.run_until(60_000);
        assert_eq!(mirror.stats().heartbeats, 5);
        mirror.resume_lifecycle();
        net.run_until(66_000);
        assert_eq!(mirror.stats().heartbeats, 6);
    }

    #[test]
    fn failed_heartbeats_count_on_the_task_not_into_the_void() {
        let net = Network::new();
        net.bind(
            Addr::new("srv", 1070),
            FnService::new(|_f, _r| Ok(DrvMsg::MirrorAck { known: true }.encode())),
        )
        .unwrap();
        let mirror =
            MirrorDepot::launch(&net, Addr::new("mirror1", 1071), Addr::new("srv", 1070)).unwrap();
        net.with_faults(|f| f.take_down("srv"));
        net.run_until(16_000);
        let task = mirror.heartbeat_task().unwrap();
        assert_eq!(task.stats().runs, 3);
        assert_eq!(task.stats().errors, 3);
        assert!(task.last_error().unwrap().contains("host down"));
        net.with_faults(|f| f.restore("srv"));
        net.run_until(21_000);
        assert_eq!(task.stats().consecutive_errors, 0);
    }

    #[test]
    fn launch_against_a_down_primary_retries_the_announce() {
        let net = Network::new();
        let mirror =
            MirrorDepot::launch(&net, Addr::new("mirror1", 1071), Addr::new("srv", 1070)).unwrap();
        assert_eq!(mirror.stats().announces, 1, "launch attempt failed");
        // The primary comes up two seconds later; the retry task gets
        // through on its next tick and retires itself.
        let seen: Arc<Mutex<Vec<DrvMsg>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        net.bind(
            Addr::new("srv", 1070),
            FnService::new(move |_f, req| {
                sink.lock()
                    .push(DrvMsg::decode(req).map_err(|e| NetError::Protocol(e.to_string()))?);
                Ok(DrvMsg::MirrorAck { known: true }.encode())
            }),
        )
        .unwrap();
        net.run_until(10_000);
        assert!(matches!(seen.lock()[0], DrvMsg::MirrorAnnounce { .. }));
        let announces = mirror.stats().announces;
        assert!(announces >= 2);
        net.run_until(20_000);
        assert_eq!(
            mirror.stats().announces,
            announces,
            "retry task retired after success"
        );
    }

    #[test]
    fn heartbeat_carries_sorted_chunk_coverage() {
        let net = Network::new();
        let img = image(4096, 1);
        let primary = Addr::new("srv", 1070);
        bind_primary(&net, primary.clone(), &img, 1024);
        let mirror = MirrorDepot::launch(&net, Addr::new("mirror1", 1071), primary).unwrap();
        mirror.preload(img.clone(), &ChunkingParams::fixed(1024));
        net.unbind(&Addr::new("srv", 1070));
        let seen: Arc<Mutex<Vec<DrvMsg>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        net.bind(
            Addr::new("srv", 1070),
            FnService::new(move |_f, req| {
                sink.lock()
                    .push(DrvMsg::decode(req).map_err(|e| NetError::Protocol(e.to_string()))?);
                Ok(DrvMsg::MirrorAck { known: true }.encode())
            }),
        )
        .unwrap();
        mirror.heartbeat().unwrap();
        let msgs = seen.lock();
        let DrvMsg::MirrorHeartbeat { coverage, .. } = &msgs[0] else {
            panic!("{:?}", msgs[0]);
        };
        let mut expected = ChunkManifest::of(&img, 1024).chunks;
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(coverage, &expected);
    }

    #[test]
    fn unknown_chunks_yield_error_not_panic() {
        let net = Network::new();
        // Primary that answers nothing useful.
        net.bind(
            Addr::new("srv", 1070),
            FnService::new(|_f, _r| {
                Ok(DrvMsg::ChunkData {
                    payload: transfer::wrap(
                        TransferMethod::Checksum,
                        &ChunkSet::default().encode(),
                        None,
                    )
                    .unwrap(),
                }
                .encode())
            }),
        )
        .unwrap();
        let mirror =
            MirrorDepot::launch(&net, Addr::new("mirror1", 1071), Addr::new("srv", 1070)).unwrap();
        let reply = net
            .request(
                &Addr::new("app", 1),
                mirror.addr(),
                DrvMsg::ChunkRequest {
                    digests: vec![0xdead],
                    transfer_method: TransferMethod::Checksum,
                }
                .encode(),
            )
            .unwrap();
        assert!(matches!(
            DrvMsg::decode(reply).unwrap(),
            DrvMsg::Error { .. }
        ));
    }
}
