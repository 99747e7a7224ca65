//! From a request to an offer, and from an offer to bytes on the wire:
//! which driver a client is granted, how it will be delivered
//! (revalidation, chunked delta, or a full file, staged or inside the
//! reply), and the file and chunk transfers that follow.

use bytes::Bytes;

use drivolution_core::pack::{pack_driver, unpack_driver};
use drivolution_core::proto::{ChunkPlan, DrvMsg, DrvOffer, DrvRequest, RequestKind};
use drivolution_core::{
    fnv1a64, DriverId, DriverRecord, DrvError, DrvResult, ExpirationPolicy, PermissionRule,
    RenewPolicy, Signature, TransferMethod,
};
use drivolution_depot::{serve_chunks, DeltaPlan};

use crate::grant::{self, Asked, Renewal};
use crate::server::DrivolutionServer;

/// Cap on files parked for a `FILE_REQUEST` that has not come. Like the
/// content index's `MAX_DELTA_PLANS`, the map grows at a client's will
/// (an offer never fetched; under `customize` each pins a private copy of
/// the package). Past the cap the oldest stage goes first: its location
/// answers "unknown location" and the client asks again. A bootstrap
/// fetches right after its offer, so only abandoned stages get that old.
pub(crate) const MAX_STAGED: usize = 1024;

/// A staged file's location is this and its stage number.
const STAGE_PREFIX: &str = "stage/";

/// A driver file parked for one `FILE_REQUEST`.
pub(crate) struct Staged {
    bytes: Bytes,
    method: TransferMethod,
}

/// Where an offer that ships a full file puts it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ship {
    /// Nowhere: a `DISCOVER` answer only advertises.
    Advertise,
    /// In a stage, for the `FILE_REQUEST` that follows.
    Stage,
    /// Beside the offer, in an `OFFER_FILE` reply.
    Inline,
}

/// What a granted driver's client needs beyond the offer.
enum Delivery {
    /// Nothing: a renewal, an advertisement, or bytes its depot holds
    /// (a revalidation).
    Nothing,
    /// The chunks its depot lacks.
    Delta(ChunkPlan),
    /// The whole file.
    File,
}

/// Memoized offer metadata for one driver row; usable only while `bytes`
/// still equals the served binary.
pub(crate) struct OfferMeta {
    bytes: Bytes,
    digest: u64,
    signature: Option<Signature>,
}

impl DrivolutionServer {
    /// The renew policy governing a grant under `rule`.
    fn renew_policy(&self, rule: Option<&PermissionRule>) -> RenewPolicy {
        rule.map_or(self.config.default_renew, |r| r.renew_policy)
    }

    fn stage(&self, bytes: Bytes, method: TransferMethod) -> String {
        let mut st = self.state.lock();
        let n = st.stage_counter;
        st.stage_counter += 1;
        st.staged.insert(n, Staged { bytes, method });
        while st.staged.len() > MAX_STAGED {
            st.staged.pop_first();
        }
        format!("{STAGE_PREFIX}{n}")
    }

    /// Content digest and signature for the bytes served in an offer,
    /// memoized per driver. Correctness never depends on invalidation: a
    /// cached entry is used only when its bytes equal the record's —
    /// same allocation in the common read-through case (blobs are shared
    /// [`Bytes`] all the way from storage), equal content after the
    /// drivers row was rewritten in place.
    fn offer_meta_for(&self, id: DriverId, bytes: &Bytes) -> (u64, Option<Signature>) {
        let mut st = self.state.lock();
        if let Some(m) = st.offer_meta.get(&id) {
            let same_alloc = m.bytes.as_ptr() == bytes.as_ptr() && m.bytes.len() == bytes.len();
            if same_alloc || m.bytes == *bytes {
                return (m.digest, m.signature);
            }
        }
        let digest = fnv1a64(bytes);
        let signature = self.config.signing.as_ref().map(|k| k.sign(bytes));
        st.offer_meta.insert(
            id,
            OfferMeta {
                bytes: bytes.clone(),
                digest,
                signature,
            },
        );
        (digest, signature)
    }

    /// The delivery choice for a granted driver. Clients advertising a
    /// `HAVE` summary revalidate exact cached content with zero transfer,
    /// or upgrade via a chunk delta when the base image they name is in
    /// this server's index and shares chunks with the offered one. Both
    /// manifests are derived under the *client's* chunking params —
    /// boundaries are a pure function of (bytes, params), so the base's
    /// digest stands for the chunk list the client holds. Everything else
    /// (and every depot-less client) gets the full file.
    fn deliver(&self, req: &DrvRequest, content_digest: u64) -> Delivery {
        if let Some(have) = &req.have {
            if have.images.contains(&content_digest) {
                self.state.lock().stats.revalidations += 1;
                return Delivery::Nothing;
            }
            // The plan (manifest derivation + missing-chunk set) is
            // memoized in the content index, so a fleet-wide wave of
            // clients on the same prior version computes it once.
            let plan = have
                .base
                .filter(|_| have.params.delta_safe())
                .and_then(|base| self.depot.manifest_for(base, &have.params))
                .and_then(|base| {
                    self.depot
                        .delta_plan(content_digest, &have.params, &base.chunks)
                });
            if let Some((DeltaPlan { manifest, missing }, hit)) = plan {
                {
                    let st = &mut self.state.lock().stats;
                    if hit {
                        st.plan_hits += 1;
                    } else {
                        st.plan_misses += 1;
                    }
                }
                if missing.len() < manifest.chunk_count() {
                    // Candidates are ranked for *this* delta: mirrors
                    // already holding the missing chunks come first, so a
                    // fresh release does not trigger a read-through storm
                    // on the primary.
                    let mirrors = self.directory.candidates(req.zone.as_deref(), &missing);
                    self.state.lock().stats.delta_offers += 1;
                    return Delivery::Delta(ChunkPlan {
                        manifest,
                        missing,
                        mirrors,
                    });
                }
            }
        }
        Delivery::File
    }

    /// The offer of `record` under `rule`, and the file to send beside
    /// it when `ship` is [`Ship::Inline`] and the client needs the whole
    /// file.
    fn offer_for(
        &self,
        record: &DriverRecord,
        rule: Option<&PermissionRule>,
        req: &DrvRequest,
        same_driver: bool,
        ship: Ship,
    ) -> DrvResult<(DrvOffer, Option<Bytes>)> {
        let expiration = rule
            .map(|r| r.expiration_policy)
            .unwrap_or(ExpirationPolicy::AfterCommit);
        let method = rule
            .map(|r| r.transfer_method)
            .unwrap_or(TransferMethod::Any)
            .resolve(req.transfer_method.resolve(self.config.default_transfer));

        // Assemble the bytes to serve: possibly a customized image.
        let mut bytes = record.binary.clone();
        let mut customized = false;
        if self.config.customize && !req.options.is_empty() && !same_driver {
            let image = unpack_driver(record.format, bytes.clone())?;
            let custom = self.assembler.customize(&image, &req.options)?;
            bytes = pack_driver(record.format, &custom);
            customized = true;
        }

        // Digest + signature are O(bytes): memoize them per driver so a
        // fleet of same-tick renewals hashes the binary once, not once
        // per client. Per-client customized images bypass the cache.
        let (content_digest, signature) = if customized {
            (
                fnv1a64(&bytes),
                self.config.signing.as_ref().map(|k| k.sign(&bytes)),
            )
        } else {
            self.offer_meta_for(record.id, &bytes)
        };
        let size = bytes.len() as u64;

        // Renewals ship nothing. A `DISCOVER` answer only advertises what
        // a unicast request would be offered: it grants nothing, so it
        // must not move the depot counters, consume mirror round-robin
        // slots or park a file nobody will ever request (the follow-up
        // request stages its own). A full file is staged, or sent beside
        // the offer when the client asked for it there.
        let delivery = if same_driver || ship == Ship::Advertise {
            Delivery::Nothing
        } else {
            self.deliver(req, content_digest)
        };
        let (location, chunked, file) = match delivery {
            Delivery::Nothing => (String::new(), None, None),
            Delivery::Delta(plan) => (String::new(), Some(plan), None),
            Delivery::File if ship == Ship::Inline => (String::new(), None, Some(bytes)),
            Delivery::File => (self.stage(bytes, method), None, None),
        };
        let options = rule
            .and_then(|r| r.driver_options.as_deref())
            .into_iter()
            .flat_map(|opts| opts.split(',').filter_map(|kv| kv.split_once('=')))
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .collect();
        let offer = DrvOffer {
            driver_id: record.id,
            driver_version: record.version,
            same_driver,
            lease_ms: grant::lease_ms(rule),
            renew_policy: self.renew_policy(rule),
            expiration_policy: expiration,
            format: record.format,
            location,
            size,
            transfer_method: method,
            options,
            signature,
            content_digest: Some(content_digest),
            chunked,
        };
        Ok((offer, file))
    }

    /// Answers one `DRIVOLUTION_REQUEST` or `FETCH` (or, under
    /// [`Ship::Advertise`], one `DRIVOLUTION_DISCOVER`) from `host` for
    /// `req` asked as
    /// `kind`, which a renewal by reference sets apart from the kept
    /// request's own: grant lookup, rollout targeting, the Table-4
    /// renewal rule, the license seat, the lease row, the offer, and the
    /// file that ships beside it under [`Ship::Inline`].
    pub(crate) fn handle_request(
        &self,
        host: &str,
        req: &DrvRequest,
        kind: &RequestKind,
        ship: Ship,
    ) -> DrvResult<(DrvOffer, Option<Bytes>)> {
        if !self.serves(&req.database) {
            return Err(DrvError::InvalidDatabase(req.database.clone()));
        }
        let asked = Asked { req, host };
        let now = self.clock.now_ms();
        let grants = self.grants(&asked)?;

        // Extension fetch: graft the package onto the base driver's image
        // and serve the enriched driver (§5.4.1).
        if let RequestKind::Extension { base, name } = kind {
            let record = self.driver_row(*base)?;
            let mut image = unpack_driver(record.format, record.binary.clone())?;
            // Keep the client's customized feature set, then graft the
            // requested package on top.
            if self.config.customize && !req.options.is_empty() {
                image = self.assembler.customize(&image, &req.options)?;
            }
            let grafted = self.assembler.with_extension(&image, name)?;
            let enriched = DriverRecord {
                binary: pack_driver(record.format, &grafted),
                ..DriverRecord::clone(&record)
            };
            let rule = grants.rule_for(*base);
            // Serve the enriched package as-is: re-applying option
            // customization would strip the package just grafted on.
            let plain = DrvRequest {
                options: Vec::new(),
                ..req.clone()
            };
            return self.offer_for(&enriched, rule, &plain, false, ship);
        }

        let (mut record, mut rule) = grants.first(&asked)?;

        // Staged rollout: when an orchestrator governs this database and
        // the matched driver is one of its two managed versions, the
        // orchestrator decides which version this host should run right
        // now. Swapping the matched record *before* the renewal rule
        // means wave-gated upgrades and post-halt rollbacks both fall out
        // of the ordinary Table-4 path below.
        let target_rec;
        let rollout = self
            .rollout_for(&req.database)
            .filter(|ro| ro.manages(record.id));
        if let Some(target) = rollout.as_ref().map(|ro| ro.resolve(host)) {
            if target != record.id {
                if let Ok(rec) = self.driver_row(target) {
                    target_rec = rec;
                    record = &target_rec;
                    rule = grants.rule_for(target).or(rule);
                }
            }
        }

        let same_driver = match kind {
            RequestKind::Renewal { current } => {
                let policy = self.renew_policy(rule);
                let kept = grants.current(*current);
                let matched_is_current = record.id == *current;
                match grant::renewal(
                    policy,
                    matched_is_current,
                    rollout.is_some(),
                    kept.is_some(),
                ) {
                    Renewal::Revoked => {
                        return Err(DrvError::LeaseExpired(format!(
                            "driver {current} revoked, no replacement offered"
                        )))
                    }
                    Renewal::Switch => false,
                    Renewal::Same => {
                        // Kept although another driver matched first:
                        // the offer describes the driver the client runs.
                        if let Some((cur_rec, cur_rule)) = kept.filter(|_| !matched_is_current) {
                            record = cur_rec;
                            rule = cur_rule;
                        }
                        true
                    }
                }
            }
            _ => false,
        };

        let lease_ms = grant::lease_ms(rule);
        if ship != Ship::Advertise {
            self.licenses
                .acquire(record.id, &req.user, host, lease_ms, now)?;
            self.store
                .log_lease_of(asked.who(), record.id, now as i64, lease_ms as i64)?;
        }
        self.offer_for(record, rule, req, same_driver, ship)
    }

    /// Answers a `FILE_REQUEST` with the encoded `FILE_DATA` frame.
    pub(crate) fn handle_file_request(
        &self,
        location: &str,
        method: TransferMethod,
    ) -> DrvResult<Bytes> {
        let unknown = || DrvError::TransferFailed(format!("unknown location {location:?}"));
        let n: u64 = location
            .strip_prefix(STAGE_PREFIX)
            .and_then(|n| n.parse().ok())
            .ok_or_else(unknown)?;
        let staged = self.state.lock().staged.remove(&n).ok_or_else(unknown)?;
        if method != staged.method {
            // The client asked with the wrong method; keep the file
            // available for a corrected request.
            self.state.lock().staged.insert(n, staged);
            return Err(DrvError::TransferFailed(format!(
                "transfer method mismatch for {location:?}"
            )));
        }
        let frame = DrvMsg::file_data_frame(staged.method, &staged.bytes, Some(&self.cert))?;
        let st = &mut self.state.lock().stats;
        st.files += 1;
        st.file_bytes += staged.bytes.len() as u64;
        Ok(frame)
    }

    /// Answers a `CHUNK_REQUEST` with the encoded `CHUNK_DATA` frame.
    pub(crate) fn handle_chunk_request(
        &self,
        digests: &[u64],
        method: TransferMethod,
    ) -> DrvResult<Bytes> {
        let method = method.resolve(self.config.default_transfer);
        let (reply, set) = serve_chunks(&self.depot, digests, method, &self.cert)?;
        let st = &mut self.state.lock().stats;
        st.chunk_requests += 1;
        st.chunk_bytes += set.payload_bytes();
        Ok(reply)
    }
}
