//! Getting an offered driver onto this machine: depot revalidation, the
//! chunked delta with its ranked mirror walk, and the full file, sent
//! inside the answer or downloaded — then signature check and VM load,
//! the shared tail of every delivery path.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;

use driverkit::{DkError, DkResult, Driver, NamespaceId};
use netsim::Addr;

use drivolution_core::proto::{ChunkPlan, DrvMsg, DrvOffer, LeaseTerms};
use drivolution_core::{transfer, Digested, DriverImage, DrvError, Lease};
use drivolution_depot::{fetch_chunks, parse_mirror_addr, DriverDepot};

use crate::bootloader::{push_sample, Bootloader};

/// Per-source chunk-fetch statistics a bootloader keeps about each
/// mirror (and the primary) it has pulled chunks from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MirrorFetchStats {
    /// Successful chunk-set fetches.
    pub successes: u64,
    /// Failed attempts (network or application refusal).
    pub failures: u64,
    /// Exponentially weighted moving average of successful fetch
    /// latencies — the client-side tiebreak between equally ranked
    /// candidates.
    pub ewma_latency_ms: u64,
}

/// Per-mirror retry budget: transient network failures get one retry
/// before the walk moves to the next candidate.
const MIRROR_ATTEMPTS: usize = 2;

impl Bootloader {
    /// Per-source chunk-fetch statistics (mirrors and the primary),
    /// sorted by location.
    pub fn mirror_fetch_stats(&self) -> Vec<(String, MirrorFetchStats)> {
        let st = self.state.lock();
        let mut v: Vec<(String, MirrorFetchStats)> = st
            .cold
            .as_ref()
            .map(|c| {
                c.mirror_fetch
                    .iter()
                    .map(|(k, s)| (k.clone(), *s))
                    .collect()
            })
            .unwrap_or_default();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Drains the recorded per-fetch virtual-clock latencies (one entry
    /// per successful chunk-set fetch, the most recent few thousand when
    /// never drained), for percentile reporting.
    pub fn take_fetch_latencies(&self) -> Vec<u64> {
        let mut st = self.state.lock();
        st.cold
            .as_deref_mut()
            .map(|c| std::mem::take(&mut c.fetch_latencies))
            .unwrap_or_default()
    }

    /// The database the current connection context is about (depot cache
    /// key).
    fn context_database(&self) -> String {
        let st = self.state.lock();
        let url = st.context.as_ref().map(|(url, _)| url);
        url.map(|u| u.database().to_string()).unwrap_or_default()
    }

    /// The "separate trusted wrapper" verifying signatures (§3.1), then
    /// the VM load — shared tail of every delivery path.
    fn verify_and_load(
        &self,
        offer: &DrvOffer,
        bytes: Bytes,
    ) -> DkResult<(Arc<DriverImage>, Arc<dyn Driver>)> {
        if let Some(trust) = &self.config.signature_trust {
            let sig = offer.signature.as_ref().ok_or_else(|| {
                DkError::Drv(DrvError::SignatureInvalid(
                    "server offered an unsigned driver but signatures are required".into(),
                ))
            })?;
            trust.verify(&bytes, sig).map_err(DkError::Drv)?;
        }
        self.vm.load(offer.format, bytes)
    }

    /// The driver of an offer whose answer carried no file: a
    /// revalidation, a chunked delta, or a `FILE_REQUEST` for the staged
    /// file.
    fn download(
        &self,
        server: &Addr,
        offer: &DrvOffer,
    ) -> DkResult<(Arc<DriverImage>, Arc<dyn Driver>)> {
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
                    let mut state = self.state.lock();
                    let st = &mut state.cold().stats;
                    st.revalidations += 1;
                    st.bytes_saved += bytes.len() as u64;
                }
                return self.verify_and_load(offer, bytes);
            }
            if let Some(plan) = &offer.chunked {
                return self.download_delta(server, offer, plan, &depot);
            }
        }

        let request = DrvMsg::FileRequest {
            location: offer.location.clone(),
            transfer_method: offer.transfer_method,
        };
        let raw = self
            .net
            .request(&self.local, server, request.encode())
            .map_err(|e| DrvError::Net(e.to_string()))?;
        let payload = match DrvMsg::decode(raw)? {
            DrvMsg::FileData { payload } => payload,
            other => return Err(other.unexpected("file").into()),
        };
        self.install_file(offer, payload)
    }

    /// The full file `offer` describes, arrived as its transfer envelope
    /// `payload`: unwrapped, checked against the offer, verified, loaded,
    /// then cached.
    fn install_file(
        &self,
        offer: &DrvOffer,
        payload: Bytes,
    ) -> DkResult<(Arc<DriverImage>, Arc<dyn Driver>)> {
        let bytes = transfer::unwrap(offer.transfer_method, payload, &self.config.channel_trust)?;
        // What arrived must be what was offered: `Plain` has no integrity
        // of its own, and any server can stage the wrong file.
        let mut image = Digested::of(bytes);
        if image.bytes().len() as u64 != offer.size
            || offer.content_digest.is_some_and(|d| d != image.digest())
        {
            let e = "downloaded file does not match the offer's size and digest";
            return Err(DrvError::BadPackage(e.into()).into());
        }
        // Verify before caching: an image that fails the signature check
        // must never enter the depot (it would be advertised in future
        // HAVE summaries and reused in delta assemblies).
        let loaded = self.verify_and_load(offer, image.bytes().clone())?;
        if let Some(depot) = &self.config.depot {
            // A zone peer may already hold exactly these bytes: the depot
            // keeps its refcounted handle, not a private copy. Only equal
            // content is taken, so a digest collision in the cache cannot
            // enter the depot; anything else is published for peers.
            let (digest, bytes) = (image.digest(), image.bytes().clone());
            let cache = self.config.image_cache.as_ref();
            let shared = cache.and_then(|c| c.get(digest));
            let interned = shared.is_some_and(|peer| image.share(&peer));
            depot.insert_digested(&self.context_database(), image);
            if let Some(cache) = cache.filter(|_| !interned) {
                cache.put(digest, bytes);
            }
        }
        self.state.lock().stats.downloads += 1;
        Ok(loaded)
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
        let t0 = self.net.clock().now_ms();
        let trust = &self.config.channel_trust;
        let result = fetch_chunks(digests, offer.transfer_method, trust, |frame| {
            self.net
                .request(&self.local, src, frame)
                .map_err(|e| DrvError::Net(e.to_string()))
        })
        .map_err(DkError::Drv);
        let dt = self.net.clock().now_ms().saturating_sub(t0);
        let mut st = self.state.lock();
        let cold = st.cold();
        let e = cold.mirror_fetch.entry(location.to_string()).or_default();
        match &result {
            Ok(_) => {
                e.successes += 1;
                e.ewma_latency_ms = if e.successes == 1 {
                    dt
                } else {
                    (3 * e.ewma_latency_ms + dt) / 4
                };
                push_sample(&mut cold.fetch_latencies, dt);
            }
            Err(_) => e.failures += 1,
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
    ) -> DkResult<(Arc<DriverImage>, Arc<dyn Driver>)> {
        // A zone peer may already have assembled exactly this image:
        // adopt its refcounted bytes instead of re-fetching and
        // re-materializing an identical copy. The adopted bytes are
        // re-verified against the manifest's size and digest, so a bad
        // cache entry fails like a corrupt download instead of being
        // trusted.
        if let Some(cache) = &self.config.image_cache {
            if let Some(bytes) = cache.get(plan.manifest.content_digest) {
                let image = Digested::of(bytes);
                if image.bytes().len() as u64 == plan.manifest.total_size
                    && image.digest() == plan.manifest.content_digest
                {
                    let loaded = self.verify_and_load(offer, image.bytes().clone())?;
                    depot.insert_digested(&self.context_database(), image);
                    {
                        let mut state = self.state.lock();
                        let st = &mut state.cold().stats;
                        st.shared_image_reuses += 1;
                        st.bytes_saved += plan.manifest.total_size;
                    }
                    return Ok(loaded);
                }
            }
        }
        let (_, need) = depot.partition_chunks(&plan.manifest);
        let mut fetched: HashMap<u64, Bytes> = HashMap::new();
        let mut fetched_bytes: u64 = 0;
        let mut fell_back = false;
        if !need.is_empty() {
            let client_zone = self.zone();
            // Client-side refinement of the server's ranking. The sort
            // is stable, so the server's order remains the final
            // tiebreak.
            let mut candidates = plan.mirrors.clone();
            {
                let mut st = self.state.lock();
                let fs = &st.cold().mirror_fetch;
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
                            self.state.lock().cold().stats.mirror_chunk_fetches += 1;
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
            let mut state = self.state.lock();
            let st = &mut state.cold().stats;
            if same_zone {
                st.same_zone_chunk_bytes += fetched_bytes;
            } else {
                st.cross_zone_chunk_bytes += fetched_bytes;
            }
        }
        // Assemble (content-verified), then check the signature before the
        // image may enter the depot.
        let image = depot
            .assemble_digested(&plan.manifest, &fetched)
            .map_err(DkError::Drv)?;
        let bytes = image.bytes().clone();
        let loaded = self.verify_and_load(offer, bytes.clone())?;
        depot.insert_digested(&self.context_database(), image);
        if let Some(cache) = &self.config.image_cache {
            // Publish the verified image for zone peers, as a refcounted
            // handle.
            cache.put(plan.manifest.content_digest, bytes);
        }
        let saved = plan.manifest.total_size.saturating_sub(fetched_bytes);
        {
            let mut state = self.state.lock();
            let st = &mut state.cold().stats;
            st.delta_downloads += 1;
            st.bytes_saved += saved;
            if fell_back {
                st.mirror_fallbacks += 1;
            }
        }
        Ok(loaded)
    }

    pub(crate) fn lease_of(&self, terms: &LeaseTerms) -> DkResult<Lease> {
        Lease::grant(
            terms.driver_id,
            self.net.clock().now_ms(),
            terms.lease_ms,
            terms.renew_policy,
            terms.expiration_policy,
        )
        .map_err(DkError::Drv)
    }

    /// Installs `offer`'s driver, from `file` when the answer carried it,
    /// as a namespace under the offered lease.
    pub(crate) fn install_offer(
        &self,
        server: &Addr,
        offer: &DrvOffer,
        file: Option<Bytes>,
    ) -> DkResult<NamespaceId> {
        let (image, driver) = match file {
            Some(payload) => self.install_file(offer, payload)?,
            None => self.download(server, offer)?,
        };
        let lease = self.lease_of(&offer.terms())?;
        let ns = self
            .registry
            .load(driver, image, offer.driver_id, lease, offer.options.clone());
        Ok(ns)
    }

    /// Best-effort `MIRROR_COMPLAINT`: tells the server that `location`
    /// served bytes that failed local verification. Transport failures
    /// are swallowed — the complaint is advisory evidence for the
    /// directory's strike ledger, never part of the fetch path's own
    /// control flow.
    fn send_mirror_complaint(&self, server: &Addr, location: &str, digest: u64, detail: &str) {
        self.state.lock().cold().stats.mirror_complaints += 1;
        let msg = DrvMsg::MirrorComplaint {
            location: location.to_string(),
            digest,
            detail: detail.to_string(),
        };
        let _ = self.net.request(&self.local, server, msg.encode());
    }
}
