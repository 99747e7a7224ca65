//! The Drivolution bootstrap and renewal protocol (paper §3.4, Tables 3–4).
//!
//! Message vocabulary:
//!
//! * [`DrvMsg::Request`] — `DRIVOLUTION_REQUEST` (unicast);
//! * [`DrvMsg::Discover`] — `DRIVOLUTION_DISCOVER` (broadcast, DHCP-like);
//! * [`DrvMsg::Offer`] — `DRIVOLUTION_OFFER`;
//! * [`DrvMsg::Error`] — `DRIVOLUTION_ERROR` with a plain-text detail;
//! * [`DrvMsg::FileRequest`] / [`DrvMsg::FileData`] — the driver file
//!   transfer;
//! * [`DrvMsg::Fetch`] / [`DrvMsg::OfferFile`] — a request whose answer
//!   carries the file beside the offer, one round trip for both;
//! * [`DrvMsg::Release`] — lease give-back, used by the license-server
//!   case study (§5.4.2).
//!
//! plus the depot, mirror-directory, activation-report and batch frames
//! documented on [`DrvMsg`]. Push notifications over dedicated channels
//! (§3.2) use [`DrvNotice`].
//!
//! Every frame has exactly one encoding and every field is mandatory;
//! each is declared once through [`wire_frame!`], and the byte layout of
//! every tag is the table in `DESIGN.md` §2.

use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};

use netsim::codec::{
    display_len, encode, get_bytes, get_whole, put_display, wire_enum, wire_frame, Capped,
    CodecError, Interned, Wire, WireAs,
};

use crate::chunk::{ChunkManifest, ChunkingParams, ImageSize};
use crate::descriptor::{BinaryFormat, DriverId};
use crate::digest::fnv1a64;
use crate::error::{DrvError, DrvResult};
use crate::policy::{ExpirationPolicy, RenewPolicy, TransferMethod};
use crate::sign::Signature;
use crate::transfer::{self, Certificate};
use crate::version::{ApiVersion, DriverVersion};

/// Conventional port Drivolution servers listen on (like DHCP's 67).
pub const DRIVOLUTION_PORT: u16 = 1070;

/// Driver ids travel as their `i64`.
impl Wire for DriverId {
    const MIN_BYTES: usize = 8;

    fn wire_len(&self) -> usize {
        Self::MIN_BYTES
    }

    fn put(&self, buf: &mut BytesMut) {
        self.0.put(buf);
    }

    fn get(buf: &mut Bytes, what: &str) -> Result<Self, CodecError> {
        i64::get(buf, what).map(DriverId)
    }
}

/// `ver` and the format name (`DESIGN.md` §2): the display form as a
/// `str`, parsed back on decode.
macro_rules! wire_display {
    ($($ty:ty = $parse:path;)+) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = 4;

            fn wire_len(&self) -> usize {
                display_len(self)
            }

            fn put(&self, buf: &mut BytesMut) {
                put_display(buf, self);
            }

            fn get(buf: &mut Bytes, what: &str) -> Result<Self, CodecError> {
                let b = get_bytes(buf, what)?;
                let s = std::str::from_utf8(&b)
                    .map_err(|_| CodecError::new(format!("{what}: invalid utf-8")))?;
                Ok($parse(s)?)
            }
        }
    )+};
}

wire_display! {
    ApiVersion = str::parse;
    DriverVersion = str::parse;
    BinaryFormat = BinaryFormat::parse;
}

wire_frame! {
    /// Why the client is asking for a driver.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum RequestKind: KindTag(u8) {
        /// First download (cold bootstrap).
        Bootstrap = 0,
        /// Lease renewal for a driver the client already runs.
        Renewal {
            /// The currently loaded driver.
            current: DriverId,
        } = 1,
        /// Lazy fetch of an extension package for a loaded driver
        /// (paper §5.4.1, the `ClassNotFoundException` path).
        Extension {
            /// The loaded base driver.
            base: DriverId,
            /// Stable extension name (e.g. `gis`, `nls-fr_FR`).
            name: String,
        } = 2,
    }
}

/// `HAVE` summary attached to requests by depot-equipped bootloaders: a
/// content-addressed description of what the client already holds, so
/// the server can answer with a zero-transfer revalidation or a chunked
/// delta instead of re-shipping the full image.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HaveSummary {
    /// Content digests of complete cached driver images, the delta base
    /// first. At most [`MAX_HAVE_IMAGES`] travel.
    pub images: Vec<u64>,
    /// Chunking params the client's depot chunks with. The server
    /// derives both delta manifests under these same params, so both
    /// sides agree on boundaries without negotiation.
    pub params: ChunkingParams,
    /// The image the client would upgrade from: the one it last used for
    /// the database, one of `images`. Chunk boundaries are a pure
    /// function of `(bytes, params)`, so a server that indexes this
    /// image derives the chunk list the client holds from the digest.
    pub base: Option<u64>,
}

type HaveImages = Capped<u16, MAX_HAVE_IMAGES>;

impl HaveSummary {
    /// The base as it travels: a base the cap cut off would make the
    /// frame undecodable, so the request then carries no base.
    fn sent_base(&self) -> Option<u64> {
        let sent = self.images.get(..MAX_HAVE_IMAGES).unwrap_or(&self.images);
        self.base.filter(|d| sent.contains(d))
    }
}

/// `HAVE`: the images, `PARAMS`, then the base, which must be among the
/// images.
impl Wire for HaveSummary {
    const MIN_BYTES: usize = 2 + ChunkingParams::MIN_BYTES + 1;

    fn wire_len(&self) -> usize {
        HaveImages::wire_len(&self.images) + self.params.wire_len() + self.sent_base().wire_len()
    }

    fn put(&self, buf: &mut BytesMut) {
        HaveImages::put(&self.images, buf);
        self.params.put(buf);
        self.sent_base().put(buf);
    }

    fn get(buf: &mut Bytes, _: &str) -> Result<Self, CodecError> {
        let images = HaveImages::get(buf, "HaveSummary.images")?;
        let params = ChunkingParams::get(buf, "HaveSummary.params")?;
        let base = Option::get(buf, "HaveSummary.base")?;
        if base.is_some_and(|d| !images.contains(&d)) {
            return Err(CodecError::new("have base is not among its images"));
        }
        Ok(HaveSummary {
            images,
            params,
            base,
        })
    }
}

wire_frame! {
    /// One ranked mirror replica in a [`ChunkPlan`]: where it is, which zone
    /// it serves from, and the server's current health estimate.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct MirrorCandidate {
        /// `host:port` of the replica serving `CHUNK_REQUEST`s.
        pub location: String,
        /// Zone the mirror announced itself in, if any.
        pub zone: Option<String>,
        /// Health hint: `false` when the mirror's heartbeat is overdue but
        /// it has not yet been quarantined — try it last.
        pub healthy: bool,
    }
}

/// Cap on chunk digests one `MIRROR_HEARTBEAT` advertises. Coverage is a
/// ranking hint, not an inventory: a replica past the cap reports its
/// first `MAX_HEARTBEAT_COVERAGE` sorted digests and the directory
/// simply sees partial coverage, which only costs ranking precision.
/// Decoders reject a heartbeat claiming more.
pub const MAX_HEARTBEAT_COVERAGE: usize = 4096;

/// Cap on image digests one `HAVE` summary advertises. The list only
/// lets the server revalidate an image instead of shipping it, so a
/// depot past the cap advertises its delta base first and drops the
/// rest: an image it does not name costs a delta or a download, never
/// a wrong answer. Decoders reject a summary claiming more.
pub const MAX_HAVE_IMAGES: usize = 4096;

wire_frame! {
    /// Chunked-delta delivery plan carried by a `DRIVOLUTION_OFFER`: the
    /// manifest of the offered image, the chunks the client must fetch, and
    /// a ranked list of mirror replicas to fetch them from (keeping bulk
    /// transfer off the matchmaking/lease path).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ChunkPlan {
        /// Manifest of the offered image.
        pub manifest: ChunkManifest,
        /// Chunk digests the client must fetch (the rest are already in its
        /// depot per the request's `HAVE` summary).
        pub missing: Vec<u64> as Capped<u32>,
        /// Mirror replicas serving `CHUNK_REQUEST`s, best candidate first
        /// (server-ranked by health, zone proximity, and load). Empty when
        /// the primary is the only source.
        pub mirrors: Vec<MirrorCandidate> as Capped<u16>,
    }
}

wire_frame! {
    /// `DRIVOLUTION_REQUEST` payload (§3.4.1).
    #[derive(Clone, Debug, PartialEq)]
    pub struct DrvRequest {
        /// Request kind (bootstrap / renewal / extension fetch).
        pub kind: RequestKind,
        /// Name of the database to be accessed.
        pub database: String,
        /// User name (optional credentials may accompany it).
        pub user: String,
        /// Optional password for servers that authenticate downloads.
        pub password: Option<String>,
        /// API name (e.g. `RDBC`, `JDBC`, `ODBC`).
        pub api_name: String,
        /// Optional API version.
        pub api_version: Option<ApiVersion>,
        /// Client platform (e.g. `jre-1.5`, `linux-x86_64`).
        pub client_platform: String,
        /// Optional preferred binary format.
        pub preferred_format: Option<BinaryFormat>,
        /// Optional preferred driver version.
        pub preferred_version: Option<DriverVersion>,
        /// Transfer methods the bootloader is willing to use.
        pub transfer_method: TransferMethod,
        /// Client options, e.g. required extensions encoded in the connection
        /// URL (`locale=fr_FR`, `gis=true`; paper §5.4.1).
        pub options: Vec<(String, String)> as Capped<u16>,
        /// Depot `HAVE` summary: cached content the server may revalidate or
        /// delta against instead of re-shipping the full image.
        pub have: Option<HaveSummary>,
        /// Zone the client is in, when its machine is placed in a zone
        /// topology. The server ranks mirror candidates for this zone.
        pub zone: Option<String>,
    }
}

impl DrvRequest {
    /// Creates a bootstrap request with no preferences.
    pub fn bootstrap(
        database: impl Into<String>,
        user: impl Into<String>,
        api_name: impl Into<String>,
        client_platform: impl Into<String>,
    ) -> Self {
        DrvRequest {
            kind: RequestKind::Bootstrap,
            database: database.into(),
            user: user.into(),
            password: None,
            api_name: api_name.into(),
            api_version: None,
            client_platform: client_platform.into(),
            preferred_format: None,
            preferred_version: None,
            transfer_method: TransferMethod::Any,
            options: Vec::new(),
            have: None,
            zone: None,
        }
    }

    /// Returns a request option by key.
    pub fn option(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The digest of this request's encoding without its `kind`: what a
    /// [`DrvMsg::RenewRef`] names. Two requests that differ only in why
    /// they ask share it.
    pub fn context_digest(&self) -> u64 {
        // The kind's encoding, then the request's, which starts with it:
        // the context is what follows the kind the second time.
        let mut b = BytesMut::with_capacity(self.kind.wire_len() + self.wire_len());
        self.kind.put(&mut b);
        let kind = b.len();
        self.put(&mut b);
        fnv1a64(b.get(2 * kind..).unwrap_or_default())
    }

    /// The [`DrvMsg::Fetch`] frame asking this request, encoded without
    /// taking it: a sender whose `FETCH` is refused says the same in a
    /// [`DrvMsg::Request`].
    pub fn fetch_frame(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(Tag::Fetch.wire_len() + self.wire_len());
        Tag::Fetch.put(&mut b);
        self.put(&mut b);
        b.freeze()
    }

    /// Whether `other` equals this request but for its `kind`: what two
    /// requests with equal [`context_digest`](Self::context_digest)s
    /// must also be before one stands for the other.
    pub fn same_context(&self, other: &DrvRequest) -> bool {
        let DrvRequest {
            kind: _,
            database,
            user,
            password,
            api_name,
            api_version,
            client_platform,
            preferred_format,
            preferred_version,
            transfer_method,
            options,
            have,
            zone,
        } = self;
        *database == other.database
            && *user == other.user
            && *password == other.password
            && *api_name == other.api_name
            && *api_version == other.api_version
            && *client_platform == other.client_platform
            && *preferred_format == other.preferred_format
            && *preferred_version == other.preferred_version
            && *transfer_method == other.transfer_method
            && *options == other.options
            && *have == other.have
            && *zone == other.zone
    }
}

wire_frame! {
    /// `DRIVOLUTION_OFFER` payload (§3.4.1): lease terms, driver location and
    /// format.
    #[derive(Clone, Debug, PartialEq)]
    pub struct DrvOffer {
        /// The offered driver.
        pub driver_id: DriverId,
        /// Its version, if recorded.
        pub driver_version: Option<DriverVersion>,
        /// `true` when this is a renewal of the driver the client already has:
        /// "a DRIVOLUTION_OFFER without data file instructs the bootloader to
        /// continue to use the same driver" (Table 4).
        pub same_driver: bool,
        /// Lease duration in milliseconds.
        pub lease_ms: u64,
        /// Renewal policy for this lease.
        pub renew_policy: RenewPolicy,
        /// Expiration policy for this lease.
        pub expiration_policy: ExpirationPolicy,
        /// Container format of the driver file.
        pub format: BinaryFormat,
        /// Opaque location token for `FILE_REQUEST`.
        pub location: String,
        /// Driver file size in bytes.
        pub size: u64 as ImageSize,
        /// Transfer method the server will use.
        pub transfer_method: TransferMethod,
        /// Options the bootloader must pass to the driver at load time
        /// (Table 2 `driver_options`).
        pub options: Vec<(String, String)> as Capped<u16>,
        /// Optional code signature over the driver file.
        pub signature: Option<Signature>,
        /// Digest of the exact bytes this offer describes. With an empty
        /// `location` and no `chunked` plan, a matching depot entry means the
        /// offer is a zero-transfer revalidation of cached content.
        pub content_digest: Option<u64>,
        /// Chunked-delta delivery plan (only the listed `missing` chunks need
        /// to travel).
        pub chunked: Option<ChunkPlan>,
    }
}

impl DrvOffer {
    /// What a same-driver renewal of this offer changes on the client.
    pub fn terms(&self) -> LeaseTerms {
        LeaseTerms {
            driver_id: self.driver_id,
            lease_ms: self.lease_ms,
            renew_policy: self.renew_policy,
            expiration_policy: self.expiration_policy,
        }
    }
}

wire_frame! {
    /// The lease a same-driver renewal grants: all a client reads of a
    /// `RENEW` offer (Table 4), and the whole of a [`DrvMsg::Renewed`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct LeaseTerms {
        /// The driver the client keeps running.
        pub driver_id: DriverId,
        /// Lease duration in milliseconds.
        pub lease_ms: u64,
        /// Renewal policy for this lease.
        pub renew_policy: RenewPolicy,
        /// Expiration policy for this lease.
        pub expiration_policy: ExpirationPolicy,
    }
}

wire_enum! {
    /// Stable `DRIVOLUTION_ERROR` codes. A code the list does not know
    /// does not decode.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum DrvErrCode: u16 {
        /// "invalid database".
        InvalidDatabase = 1,
        /// "no driver for specified API/platform".
        NoMatchingDriver = 2,
        /// Client not permitted.
        PermissionDenied = 3,
        /// Lease cannot be renewed and no replacement exists (REVOKE path).
        NoDriverAvailable = 4,
        /// Anything else.
        Internal = 5,
        /// The server holds no request under the token a
        /// [`DrvMsg::RenewRef`] named (it never saw one from this host,
        /// restarted, or flushed its table): send the full request.
        ResendInFull = 6,
    }
}

wire_frame! {
    /// How one client's activation of a freshly offered driver went: the
    /// body of an `ACTIVATION_REPORT`, and what each entry of an
    /// [`DrvMsg::ActivationBatch`] names.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Activation {
        /// Database the driver serves.
        pub database: String,
        /// The driver the client tried to activate.
        pub driver: DriverId,
        /// Version of that driver, if the client knows it.
        pub version: Option<DriverVersion>,
        /// `true` when the driver loaded and activated cleanly.
        pub ok: bool,
        /// Plain-text failure detail (empty on success).
        pub detail: String,
    }
}

impl Activation {
    /// The lone `ACTIVATION_REPORT` carrying this report.
    pub fn into_report(self) -> DrvMsg {
        let Activation {
            database,
            driver,
            version,
            ok,
            detail,
        } = self;
        DrvMsg::ActivationReport {
            database,
            driver,
            version,
            ok,
            detail,
        }
    }
}

/// One entry's reply in an [`DrvMsg::OfferBatch`]: the offer, or the
/// error class and message an individual request would have drawn.
pub type BatchReply = Result<DrvOffer, (DrvErrCode, String)>;

impl DrvErrCode {
    /// Maps a protocol error into the crate error type.
    fn into_error(self, message: String) -> DrvError {
        match self {
            DrvErrCode::InvalidDatabase => DrvError::InvalidDatabase(message),
            DrvErrCode::NoMatchingDriver => DrvError::NoMatchingDriver(message),
            DrvErrCode::PermissionDenied => DrvError::PermissionDenied(message),
            DrvErrCode::NoDriverAvailable => DrvError::LeaseExpired(message),
            DrvErrCode::Internal => DrvError::Internal(message),
            DrvErrCode::ResendInFull => DrvError::ResendInFull(message),
        }
    }

    /// Classifies a server-side error for the wire.
    pub fn classify(e: &DrvError) -> DrvErrCode {
        match e {
            DrvError::InvalidDatabase(_) => DrvErrCode::InvalidDatabase,
            DrvError::NoMatchingDriver(_) => DrvErrCode::NoMatchingDriver,
            DrvError::PermissionDenied(_) => DrvErrCode::PermissionDenied,
            DrvError::LeaseExpired(_) => DrvErrCode::NoDriverAvailable,
            DrvError::ResendInFull(_) => DrvErrCode::ResendInFull,
            _ => DrvErrCode::Internal,
        }
    }
}

wire_frame! {
    /// A Drivolution protocol message.
    #[derive(Clone, Debug, PartialEq)]
    pub enum DrvMsg: Tag(u8) {
        /// Unicast `DRIVOLUTION_REQUEST`.
        Request(DrvRequest) = 0,
        /// Broadcast `DRIVOLUTION_DISCOVER` (same payload; servers that can
        /// serve it answer with offers).
        Discover(DrvRequest) = 1,
        /// `DRIVOLUTION_OFFER`.
        Offer(DrvOffer) = 2,
        /// `DRIVOLUTION_ERROR` with an "optional detailed error message in
        /// plain text".
        Error {
            /// Error class.
            code: DrvErrCode,
            /// Plain-text detail.
            message: String,
        } = 3,
        /// `FILE_REQUEST(driver_file)`.
        FileRequest {
            /// Location token from the offer.
            location: String,
            /// Transfer method to use.
            transfer_method: TransferMethod,
        } = 4,
        /// `FILE_DATA(binary_code)` — payload is transfer-wrapped (see
        /// [`crate::transfer`]).
        FileData {
            /// Wrapped driver bytes.
            payload: Bytes,
        } = 5,
        /// Lease give-back (license server, §5.4.2).
        Release {
            /// Database whose driver is returned.
            database: String,
            /// Releasing user.
            user: String,
            /// The returned driver.
            driver: DriverId,
        } = 6,
        /// Acknowledgement of a release.
        ReleaseOk = 7,
        /// `CHUNK_REQUEST(digests)` — content-addressed fetch of depot
        /// chunks, served by the primary server or a mirror replica.
        ChunkRequest {
            /// Chunk digests to fetch.
            digests: Vec<u64> as Capped<u32>,
            /// Transfer method to wrap the chunk set with.
            transfer_method: TransferMethod,
        } = 8,
        /// `CHUNK_DATA(chunk_set)` — payload is a transfer-wrapped
        /// [`crate::chunk::ChunkSet`] encoding.
        ChunkData {
            /// Wrapped chunk-set bytes.
            payload: Bytes,
        } = 9,
        /// `MIRROR_ANNOUNCE` — a depot mirror registers itself with the
        /// primary's mirror directory (location, zone). Sent at launch and
        /// whenever a heartbeat is answered with `known: false`.
        MirrorAnnounce {
            /// `host:port` the mirror serves `CHUNK_REQUEST`s on.
            location: String,
            /// Zone the mirror is placed in, if any.
            zone: Option<String>,
        } = 10,
        /// `MIRROR_HEARTBEAT` — a registered mirror's periodic liveness and
        /// coverage report; silence quarantines and eventually evicts it.
        MirrorHeartbeat {
            /// `host:port` the mirror announced under.
            location: String,
            /// Chunks the mirror's replica currently holds.
            chunk_count: u64,
            /// Requests served since the previous heartbeat (load signal for
            /// candidate ranking).
            load: u32,
            /// Chunk digests the replica holds, sorted, capped at
            /// [`MAX_HEARTBEAT_COVERAGE`]. The directory ranks candidates
            /// that already hold a plan's missing chunks ahead of ones that
            /// would read through to the primary.
            coverage: Vec<u64> as Capped<u32, MAX_HEARTBEAT_COVERAGE>,
        } = 11,
        /// `MIRROR_ACK` — the directory's answer to an announce or
        /// heartbeat.
        MirrorAck {
            /// `false` when the heartbeat named an unregistered mirror (it
            /// was evicted or the server restarted): re-announce.
            known: bool,
        } = 12,
        /// `ACTIVATION_REPORT` — a bootloader's report that it
        /// activated (or failed to activate) a freshly offered driver. Rollout
        /// health gates aggregate these per wave; servers without an active
        /// rollout just count them.
        ActivationReport {
            /// Database the driver serves.
            database: String,
            /// The driver the client tried to activate.
            driver: DriverId,
            /// Version of that driver, if the client knows it.
            version: Option<DriverVersion>,
            /// `true` when the driver loaded and activated cleanly.
            ok: bool,
            /// Plain-text failure detail (empty on success).
            detail: String,
        } = 13,
        /// `ACTIVATION_ACK` — the server's answer to an activation report.
        ActivationAck = 14,
        /// `RENEW_BATCH` — a renewal aggregator's coalesced frame: one entry
        /// per client due in the same scheduler tick, carrying the
        /// originating client host (licensing, lease logging, and rollout
        /// wave membership key on the client, never the aggregator) plus
        /// that client's renewal request. Each distinct request travels
        /// once per frame ([`Interned`]). The server answers with one
        /// [`DrvMsg::OfferBatch`] whose entries pair up by position.
        /// Unbatched clients keep sending single `Request` frames.
        RenewBatch {
            /// Per-client entries: `(client_host, request)`; equal
            /// requests share one decoded value.
            entries: Vec<(String, Arc<DrvRequest>)> as Interned,
        } = 15,
        /// `OFFER_BATCH` — the server's positional reply to a
        /// [`DrvMsg::RenewBatch`]: per entry, either a full offer or the
        /// typed error that client's individual request would have
        /// produced. Each distinct reply travels once per frame.
        OfferBatch {
            /// Positional replies, one per batch entry; equal replies
            /// share one decoded value.
            replies: Vec<Arc<BatchReply>> as Interned,
        } = 16,
        /// `MIRROR_COMPLAINT` — a bootloader's best-effort report that a
        /// mirror served bytes failing digest/checksum verification. The
        /// directory keeps a corroborated strike ledger per mirror and
        /// demotes repeat offenders (distinct from silence-quarantine); the
        /// server answers with [`DrvMsg::MirrorAck`].
        MirrorComplaint {
            /// The offending mirror's registered location (`host:port`).
            location: String,
            /// The chunk or payload digest the client expected and did not
            /// receive (zero when the frame itself failed to decode).
            digest: u64,
            /// Plain-text detail of what failed verification.
            detail: String,
        } = 17,
        /// `RENEW_REF` — a lone renewal whose request equals the last
        /// full one this host had granted: the driver it runs and that
        /// request's [`DrvRequest::context_digest`]. The server renews
        /// from the request it kept for the host, or answers
        /// [`DrvErrCode::ResendInFull`].
        RenewRef {
            /// The currently loaded driver.
            current: DriverId,
            /// The kept request's context digest.
            token: u64,
        } = 18,
        /// `RENEWED` — the answer to a [`DrvMsg::RenewRef`] whose grant
        /// keeps the client's driver: the new lease and nothing else. Any
        /// other grant is answered with the full [`DrvMsg::Offer`].
        Renewed(LeaseTerms) = 19,
        /// `ACTIVATION_BATCH` — a renewal aggregator's activation reports
        /// for the clients one of its ticks upgraded, each entry naming
        /// its client host as a [`DrvMsg::RenewBatch`] entry does. Each
        /// distinct report travels once per frame. The server takes each
        /// entry as that host's lone `ACTIVATION_REPORT` and answers the
        /// frame with one [`DrvMsg::ActivationAck`].
        ActivationBatch {
            /// Per-client entries: `(client_host, report)`; equal
            /// reports share one decoded value.
            entries: Vec<(String, Arc<Activation>)> as Interned,
        } = 20,
        /// `FETCH` — a `DRIVOLUTION_REQUEST` whose sender takes the
        /// file inside the answer: an offer that would name a staged
        /// file comes back as [`DrvMsg::OfferFile`], any other answer as
        /// it would to a [`DrvMsg::Request`].
        Fetch(DrvRequest) = 21,
        /// `OFFER_FILE` — the answer to a [`DrvMsg::Fetch`] whose offer
        /// ships a full file: the offer (with an empty location) and the
        /// `FILE_DATA` payload, transfer-wrapped, in one frame.
        OfferFile {
            /// The offer.
            offer: DrvOffer,
            /// Wrapped driver bytes.
            payload: Bytes,
        } = 22,
    }
}

/// A bulk reply frame: `tag`, the offer it carries if any, the `u32`
/// length `bytes` would write, then the transfer envelope itself.
fn bulk_frame(
    tag: Tag,
    offer: Option<&DrvOffer>,
    method: TransferMethod,
    payload: &[u8],
    cert: Option<&Certificate>,
) -> DrvResult<Bytes> {
    let envelope = transfer::wrapped_len(method, payload.len(), cert);
    let head = tag.wire_len() + offer.map_or(0, Wire::wire_len);
    let mut b = BytesMut::with_capacity(head + 4 + envelope);
    tag.put(&mut b);
    if let Some(offer) = offer {
        offer.put(&mut b);
    }
    b.put_u32_le(envelope as u32);
    transfer::wrap_into(&mut b, method, payload, cert)?;
    Ok(b.freeze())
}

impl DrvMsg {
    /// Serializes the message into one buffer of its exact length.
    pub fn encode(&self) -> Bytes {
        encode(self)
    }

    /// Deserializes a message.
    ///
    /// # Errors
    ///
    /// [`DrvError::Codec`] on malformed frames and on bytes after the last
    /// field.
    pub fn decode(buf: Bytes) -> DrvResult<Self> {
        Ok(get_whole(buf, "drv msg")?)
    }

    /// The encoded `FILE_DATA` reply for `payload` wrapped under `method`
    /// ([`transfer::wrap`]), built once: one exactly sized buffer, the
    /// frame head, then the envelope written behind it — where
    /// [`encode`](Self::encode) would copy a finished envelope.
    /// [`decode`](Self::decode) yields the payload as a slice of the frame.
    ///
    /// # Errors
    ///
    /// As [`transfer::wrap`].
    pub fn file_data_frame(
        method: TransferMethod,
        payload: &[u8],
        cert: Option<&Certificate>,
    ) -> DrvResult<Bytes> {
        bulk_frame(Tag::FileData, None, method, payload, cert)
    }

    /// [`file_data_frame`](Self::file_data_frame) for a `CHUNK_DATA`
    /// reply; `payload` is the [`crate::chunk::ChunkSet`] encoding.
    ///
    /// # Errors
    ///
    /// As [`transfer::wrap`].
    pub fn chunk_data_frame(
        method: TransferMethod,
        payload: &[u8],
        cert: Option<&Certificate>,
    ) -> DrvResult<Bytes> {
        bulk_frame(Tag::ChunkData, None, method, payload, cert)
    }

    /// [`file_data_frame`](Self::file_data_frame) for an `OFFER_FILE`
    /// reply: `offer`, then `payload` wrapped under the offer's transfer
    /// method, in one exactly sized buffer.
    ///
    /// # Errors
    ///
    /// As [`transfer::wrap`].
    pub fn offer_file_frame(
        offer: &DrvOffer,
        payload: &[u8],
        cert: Option<&Certificate>,
    ) -> DrvResult<Bytes> {
        let method = offer.transfer_method;
        bulk_frame(Tag::OfferFile, Some(offer), method, payload, cert)
    }

    /// Encodes an error message from a server-side failure.
    pub fn error_from(e: &DrvError) -> DrvMsg {
        DrvMsg::Error {
            code: DrvErrCode::classify(e),
            message: e.to_string(),
        }
    }

    /// The client-side inverse of [`error_from`](Self::error_from), for
    /// a reply that is not the frame the request expected: the typed
    /// error a `DRIVOLUTION_ERROR` carries, a codec error naming `what`
    /// for any other frame.
    pub fn unexpected(self, what: &str) -> DrvError {
        match self {
            DrvMsg::Error { code, message } => code.into_error(message),
            other => DrvError::Codec(format!("unexpected {what} reply {other:?}")),
        }
    }
}

wire_frame! {
    /// Push notifications on the dedicated bootloader↔server channel (§3.2:
    /// "a dedicated channel … allows the Drivolution Server to immediately
    /// signal that a new driver is available").
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum DrvNotice: NoticeTag(u8) {
        /// A new driver for `database` is available; renew now.
        DriverAvailable {
            /// Affected database.
            database: String,
        } = 0,
        /// The driver for `database` has been revoked; apply the expiration
        /// policy now.
        DriverRevoked {
            /// Affected database.
            database: String,
        } = 1,
    }
}

impl DrvNotice {
    /// Serializes the notice.
    pub fn encode(&self) -> Bytes {
        encode(self)
    }

    /// Deserializes a notice.
    ///
    /// # Errors
    ///
    /// [`DrvError::Codec`] on malformed frames and on bytes after the last
    /// field.
    pub fn decode(buf: Bytes) -> DrvResult<Self> {
        Ok(get_whole(buf, "notice")?)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use netsim::codec::put_str;

    use super::*;
    use crate::sign::SigningKey;

    /// Decodes one `T` as its enclosing frame would report it.
    fn get<T: Wire>(mut buf: Bytes) -> DrvResult<T> {
        Ok(T::get(&mut buf, "test")?)
    }

    fn request() -> DrvRequest {
        let mut r = DrvRequest::bootstrap("orders", "app1", "RDBC", "linux-x86_64");
        r.password = Some("pw".into());
        r.api_version = Some(ApiVersion::exact(1, 0));
        r.preferred_format = Some(BinaryFormat::Dzip);
        r.preferred_version = Some(DriverVersion::new(2, 1, 0));
        r.transfer_method = TransferMethod::Sealed;
        r.options = vec![("locale".into(), "fr_FR".into())];
        r
    }

    fn offer() -> DrvOffer {
        DrvOffer {
            driver_id: DriverId(7),
            driver_version: Some(DriverVersion::new(2, 1, 0)),
            same_driver: false,
            lease_ms: 3_600_000,
            renew_policy: RenewPolicy::Upgrade,
            expiration_policy: ExpirationPolicy::AfterCommit,
            format: BinaryFormat::Djar,
            location: "drivers/7".into(),
            size: 123_456,
            transfer_method: TransferMethod::Sealed,
            options: vec![("fetch_size".into(), "100".into())],
            signature: Some(SigningKey::from_seed(1).sign(b"bytes")),
            content_digest: Some(0xdead_beef),
            chunked: None,
        }
    }

    fn chunk_plan() -> ChunkPlan {
        let manifest = ChunkManifest::of(&[7u8; 10_000], 4096);
        let missing = manifest.chunks[1..].to_vec();
        ChunkPlan {
            manifest,
            missing,
            mirrors: vec![
                MirrorCandidate {
                    location: "mirror1:1071".into(),
                    zone: Some("zone-a".into()),
                    healthy: true,
                },
                MirrorCandidate {
                    location: "mirror2:1071".into(),
                    zone: None,
                    healthy: false,
                },
            ],
        }
    }

    #[test]
    fn an_offered_size_past_the_image_cap_does_not_decode() {
        use crate::chunk::MAX_IMAGE_BYTES;
        let at_cap = DrvMsg::Offer(DrvOffer {
            size: MAX_IMAGE_BYTES,
            ..offer()
        });
        assert_eq!(DrvMsg::decode(at_cap.encode()).unwrap(), at_cap);
        let past = DrvOffer {
            size: MAX_IMAGE_BYTES + 1,
            ..offer()
        };
        let mut plan = chunk_plan();
        plan.manifest.total_size = MAX_IMAGE_BYTES + 1;
        let forged_plan = DrvOffer {
            chunked: Some(plan),
            ..offer()
        };
        for forged in [past, forged_plan] {
            let e = DrvMsg::decode(DrvMsg::Offer(forged).encode());
            assert!(matches!(e, Err(DrvError::Codec(_))), "{e:?}");
        }
    }

    #[test]
    fn all_messages_roundtrip() {
        let msgs = vec![
            DrvMsg::Request(request()),
            DrvMsg::Discover(DrvRequest::bootstrap("db", "u", "RDBC", "p")),
            DrvMsg::Request(DrvRequest {
                kind: RequestKind::Renewal {
                    current: DriverId(3),
                },
                ..request()
            }),
            DrvMsg::Request(DrvRequest {
                kind: RequestKind::Extension {
                    base: DriverId(3),
                    name: "gis".into(),
                },
                ..request()
            }),
            DrvMsg::Request(DrvRequest {
                have: Some(HaveSummary {
                    images: vec![2, 1],
                    params: ChunkingParams::fixed(4096),
                    base: Some(2),
                }),
                ..request()
            }),
            DrvMsg::Request(DrvRequest {
                have: Some(HaveSummary {
                    images: vec![9],
                    params: ChunkingParams::default(),
                    base: None,
                }),
                ..request()
            }),
            DrvMsg::Offer(offer()),
            DrvMsg::Offer(DrvOffer {
                signature: None,
                same_driver: true,
                content_digest: None,
                ..offer()
            }),
            DrvMsg::Offer(DrvOffer {
                chunked: Some(chunk_plan()),
                ..offer()
            }),
            DrvMsg::Offer(DrvOffer {
                chunked: Some(ChunkPlan {
                    mirrors: Vec::new(),
                    ..chunk_plan()
                }),
                ..offer()
            }),
            DrvMsg::Request(DrvRequest {
                zone: Some("zone-b".into()),
                ..request()
            }),
            DrvMsg::Error {
                code: DrvErrCode::NoMatchingDriver,
                message: "no driver for specified API/platform".into(),
            },
            DrvMsg::FileRequest {
                location: "drivers/7".into(),
                transfer_method: TransferMethod::Checksum,
            },
            DrvMsg::FileData {
                payload: Bytes::from_static(b"wrapped"),
            },
            DrvMsg::Release {
                database: "db".into(),
                user: "u".into(),
                driver: DriverId(9),
            },
            DrvMsg::ReleaseOk,
            DrvMsg::ChunkRequest {
                digests: vec![0x11, 0x22, 0x33],
                transfer_method: TransferMethod::Sealed,
            },
            DrvMsg::ChunkData {
                payload: Bytes::from_static(b"wrapped chunk set"),
            },
            DrvMsg::MirrorAnnounce {
                location: "mirror1:1071".into(),
                zone: Some("zone-a".into()),
            },
            DrvMsg::MirrorAnnounce {
                location: "mirror2:1071".into(),
                zone: None,
            },
            DrvMsg::MirrorHeartbeat {
                location: "mirror1:1071".into(),
                chunk_count: 1234,
                load: 17,
                coverage: vec![0xaa, 0xbb, 0xcc],
            },
            DrvMsg::MirrorHeartbeat {
                location: "mirror2:1071".into(),
                chunk_count: 0,
                load: 0,
                coverage: Vec::new(),
            },
            DrvMsg::MirrorAck { known: true },
            DrvMsg::MirrorAck { known: false },
            DrvMsg::ActivationReport {
                database: "orders".into(),
                driver: DriverId(2),
                version: Some(DriverVersion::new(2, 0, 0)),
                ok: true,
                detail: String::new(),
            },
            DrvMsg::ActivationReport {
                database: "orders".into(),
                driver: DriverId(2),
                version: None,
                ok: false,
                detail: "load failed: bad symbol".into(),
            },
            DrvMsg::ActivationAck,
            DrvMsg::RenewBatch {
                entries: vec![
                    (
                        "app0001".into(),
                        Arc::new(DrvRequest {
                            kind: RequestKind::Renewal {
                                current: DriverId(3),
                            },
                            ..request()
                        }),
                    ),
                    ("app0002".into(), Arc::new(request())),
                ],
            },
            DrvMsg::RenewBatch {
                entries: Vec::new(),
            },
            DrvMsg::OfferBatch {
                replies: vec![
                    Arc::new(Ok(offer())),
                    Arc::new(Err((
                        DrvErrCode::PermissionDenied,
                        "no license available".into(),
                    ))),
                    Arc::new(Ok(DrvOffer {
                        same_driver: true,
                        chunked: Some(chunk_plan()),
                        ..offer()
                    })),
                ],
            },
            DrvMsg::OfferBatch {
                replies: Vec::new(),
            },
            DrvMsg::MirrorComplaint {
                location: "mirror-b:1071".into(),
                digest: 0xdead_beef_cafe_f00d,
                detail: "chunk payload does not match its digest".into(),
            },
            DrvMsg::MirrorComplaint {
                location: "mirror-c:1071".into(),
                digest: 0,
                detail: String::new(),
            },
            DrvMsg::RenewRef {
                current: DriverId(3),
                token: 0x0123_4567_89ab_cdef,
            },
            DrvMsg::Renewed(offer().terms()),
            DrvMsg::ActivationBatch {
                entries: {
                    let ok = Arc::new(Activation {
                        database: "orders".into(),
                        driver: DriverId(2),
                        version: Some(DriverVersion::new(2, 0, 0)),
                        ok: true,
                        detail: String::new(),
                    });
                    let failed = Arc::new(Activation {
                        version: None,
                        ok: false,
                        detail: "load failed: bad symbol".into(),
                        ..(*ok).clone()
                    });
                    vec![
                        ("app0001".into(), Arc::clone(&ok)),
                        ("app0002".into(), failed),
                        ("app0003".into(), ok),
                    ]
                },
            },
            DrvMsg::ActivationBatch {
                entries: Vec::new(),
            },
            DrvMsg::Error {
                code: DrvErrCode::ResendInFull,
                message: "no request kept for app0001".into(),
            },
            DrvMsg::Fetch(request()),
            DrvMsg::OfferFile {
                offer: DrvOffer {
                    location: String::new(),
                    ..offer()
                },
                payload: Bytes::from_static(b"wrapped"),
            },
        ];
        // One message per tag: every tag is encoded by some variant.
        let tags: BTreeSet<u8> = msgs.iter().map(|m| m.encode()[0]).collect();
        let all: BTreeSet<u8> = (0..=u8::MAX)
            .filter_map(Tag::from_code)
            .map(Tag::code)
            .collect();
        assert_eq!(tags, all);
        for m in msgs {
            assert_eq!(DrvMsg::decode(m.encode()).unwrap(), m, "roundtrip of {m:?}");
        }
        // A borrowed request's `FETCH` is the owned one's.
        let req = request();
        assert_eq!(req.fetch_frame(), DrvMsg::Fetch(req.clone()).encode());
    }

    #[test]
    fn a_bulk_frame_is_the_encoding_of_its_wrapped_payload() {
        let payload = crate::digest::entropy_blob(4099, 3);
        let cert = Certificate::issue("db1", 1);
        for method in [TransferMethod::Plain, TransferMethod::Checksum] {
            let wrapped = transfer::wrap(method, &payload, None).unwrap();
            let file = DrvMsg::file_data_frame(method, &payload, None).unwrap();
            let chunk = DrvMsg::chunk_data_frame(method, &payload, None).unwrap();
            let payload = wrapped.clone();
            assert_eq!(file, DrvMsg::FileData { payload }.encode());
            assert_eq!(chunk, DrvMsg::ChunkData { payload: wrapped }.encode());
        }
        // Sealed envelopes differ by nonce: same length, same payload back.
        let frame = DrvMsg::file_data_frame(TransferMethod::Sealed, &payload, Some(&cert)).unwrap();
        let len = transfer::wrapped_len(TransferMethod::Sealed, payload.len(), Some(&cert));
        assert_eq!(frame.len(), 1 + 4 + len);
        let DrvMsg::FileData { payload: sealed } = DrvMsg::decode(frame).unwrap() else {
            panic!("FILE_DATA expected");
        };
        let mut trust = transfer::ChannelTrust::new();
        trust.pin(&cert);
        let plain = transfer::unwrap(TransferMethod::Sealed, sealed, &trust).unwrap();
        assert_eq!(plain, payload[..]);
        // An inline file is the same envelope behind its offer.
        for method in [TransferMethod::Plain, TransferMethod::Checksum] {
            let offer = DrvOffer {
                transfer_method: method,
                ..offer()
            };
            let frame = DrvMsg::offer_file_frame(&offer, &payload, None).unwrap();
            let payload = transfer::wrap(method, &payload, None).unwrap();
            assert_eq!(frame, DrvMsg::OfferFile { offer, payload }.encode());
        }
        let frame = DrvMsg::offer_file_frame(&offer(), &payload, Some(&cert)).unwrap();
        let DrvMsg::OfferFile {
            offer: got,
            payload: sealed,
        } = DrvMsg::decode(frame).unwrap()
        else {
            panic!("OFFER_FILE expected");
        };
        assert_eq!(got, offer());
        let plain = transfer::unwrap(TransferMethod::Sealed, sealed, &trust).unwrap();
        assert_eq!(plain, Bytes::from(payload));
        // A failed wrap leaves no frame.
        assert!(DrvMsg::offer_file_frame(&offer(), b"x", None).is_err());
        assert!(DrvMsg::file_data_frame(TransferMethod::Sealed, b"x", None).is_err());
        assert!(DrvMsg::chunk_data_frame(TransferMethod::Any, b"x", None).is_err());
    }

    #[test]
    fn hostile_batch_counts_are_rejected() {
        // A hostile count cannot reserve more entries than the frame
        // could possibly hold, for any batch frame.
        for tag in [15u8, 16u8, 20u8] {
            let mut b = BytesMut::new();
            b.put_u8(tag);
            b.put_u32_le(u32::MAX);
            assert!(DrvMsg::decode(b.freeze()).is_err(), "tag {tag}");
        }
    }

    #[test]
    fn batch_item_minima_are_real_encodings() {
        // `get_items` refuses a count its frame cannot hold at the item
        // minimum, so a minimum above the shortest real item or entry
        // would refuse valid frames: the shortest fill theirs exactly.
        // Each distinct item travels once, then each entry its index.
        let empty = || Arc::new(DrvRequest::bootstrap("", "", "", ""));
        let other = Arc::new(DrvRequest::bootstrap("", "", "", "x"));
        let entries = vec![
            (String::new(), empty()),
            (String::new(), other),
            (String::new(), empty()),
        ];
        let batch = DrvMsg::RenewBatch { entries };
        assert_eq!(batch.encode().len(), 1 + 4 + 26 + 27 + 4 + 3 * 8);
        let reply = Arc::new(Err((DrvErrCode::Internal, String::new())));
        let replies = DrvMsg::OfferBatch {
            replies: vec![reply; 3],
        };
        assert_eq!(replies.encode().len(), 1 + 4 + 7 + 4 + 3 * 4);
        for m in [batch, replies] {
            assert_eq!(DrvMsg::decode(m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn hostile_heartbeat_coverage_count_is_rejected() {
        let mut b = BytesMut::new();
        b.put_u8(11);
        put_str(&mut b, "mirror1:1071");
        b.put_u64_le(1);
        b.put_u32_le(0);
        let head = b.clone();
        b.put_u32_le(u32::MAX); // claims 4 billion digests follow
        assert!(DrvMsg::decode(b.freeze()).is_err());

        // One digest past the cap, all of them really in the frame: the
        // sender-side cap is enforced at decode too, so the directory
        // never stores an oversized coverage list.
        let mut b = head;
        b.put_u32_le(MAX_HEARTBEAT_COVERAGE as u32 + 1);
        for d in 0..=MAX_HEARTBEAT_COVERAGE as u64 {
            b.put_u64_le(d);
        }
        assert!(matches!(
            DrvMsg::decode(b.freeze()),
            Err(DrvError::Codec(_))
        ));
    }

    #[test]
    fn heartbeat_encoder_caps_coverage() {
        let msg = DrvMsg::MirrorHeartbeat {
            location: "m:1".into(),
            chunk_count: 10_000,
            load: 0,
            coverage: (0..10_000u64).collect(),
        };
        let DrvMsg::MirrorHeartbeat { coverage, .. } = DrvMsg::decode(msg.encode()).unwrap() else {
            panic!()
        };
        assert_eq!(coverage.len(), MAX_HEARTBEAT_COVERAGE);
    }

    #[test]
    fn error_codes_map_to_crate_errors() {
        let e = DrvErrCode::InvalidDatabase.into_error("hr".into());
        assert!(matches!(e, DrvError::InvalidDatabase(_)));
        assert_eq!(
            DrvErrCode::classify(&DrvError::NoMatchingDriver("x".into())),
            DrvErrCode::NoMatchingDriver
        );
        // Classify → into_error → classify is stable.
        for code in [
            DrvErrCode::InvalidDatabase,
            DrvErrCode::NoMatchingDriver,
            DrvErrCode::PermissionDenied,
            DrvErrCode::NoDriverAvailable,
            DrvErrCode::Internal,
            DrvErrCode::ResendInFull,
        ] {
            let e = code.into_error("m".into());
            assert_eq!(DrvErrCode::classify(&e), code);
        }
    }

    #[test]
    fn an_unknown_error_code_does_not_decode() {
        let known = DrvMsg::Error {
            code: DrvErrCode::Internal,
            message: "m".into(),
        };
        let mut frame = known.encode().to_vec();
        // Tag 3, then the code as a little-endian u16.
        assert_eq!(frame[..3], [3, 5, 0]);
        frame[1..3].copy_from_slice(&0x00ffu16.to_le_bytes());
        assert!(DrvMsg::decode(Bytes::from(frame)).is_err());
    }

    #[test]
    fn hostile_counts_rejected_without_overflow() {
        // Counts whose byte product wraps 32-bit usize arithmetic
        // (0x2000_0001 * 8 == 8 mod 2^32) must still be rejected: the
        // guards compare in u64.
        for count in [u32::MAX, 0x2000_0001] {
            // CHUNK_REQUEST with a hostile digest count.
            let mut b = BytesMut::new();
            b.put_u8(8);
            b.put_u32_le(count);
            b.put_u64_le(0xdead);
            assert!(
                DrvMsg::decode(b.freeze()).is_err(),
                "chunk request count {count:#x} accepted"
            );
        }
    }

    fn have_bytes(images: &[u64], base: Option<u64>) -> Bytes {
        let mut b = BytesMut::new();
        b.put_u16_le(images.len() as u16);
        for d in images {
            b.put_u64_le(*d);
        }
        ChunkingParams::default().encode_into(&mut b);
        match base {
            Some(d) => {
                b.put_u8(1);
                b.put_u64_le(d);
            }
            None => b.put_u8(0),
        }
        b.freeze()
    }

    #[test]
    fn have_image_count_past_the_cap_is_rejected() {
        // Every digest is really in the frame: the cap is policy, not a
        // bytes-left check.
        let images: Vec<u64> = (0..=MAX_HAVE_IMAGES as u64).collect();
        let decoded = get::<HaveSummary>(have_bytes(&images, None));
        assert!(matches!(decoded, Err(DrvError::Codec(_))), "{decoded:?}");
        let at_cap = get::<HaveSummary>(have_bytes(&images[1..], None)).unwrap();
        assert_eq!(at_cap.images.len(), MAX_HAVE_IMAGES);
    }

    #[test]
    fn have_base_outside_its_images_is_rejected() {
        let decoded = get::<HaveSummary>(have_bytes(&[1, 2], Some(3)));
        assert!(matches!(decoded, Err(DrvError::Codec(_))), "{decoded:?}");
        let ok = get::<HaveSummary>(have_bytes(&[1, 2], Some(2))).unwrap();
        assert_eq!(ok.base, Some(2));
    }

    #[test]
    fn have_summary_past_the_cap_keeps_its_base_and_the_rest_of_the_request() {
        // A `u16` count cast from 70 000 would wrap to 4 464 and the
        // decoder would read digests as the params and zone.
        let images: Vec<u64> = (0..70_000u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9))
            .collect();
        let req = DrvRequest {
            have: Some(HaveSummary {
                images: images.clone(),
                params: ChunkingParams::default(),
                base: Some(images[0]),
            }),
            zone: Some("east".into()),
            ..request()
        };
        let DrvMsg::Request(got) = DrvMsg::decode(DrvMsg::Request(req.clone()).encode()).unwrap()
        else {
            panic!()
        };
        let want = DrvRequest {
            have: Some(HaveSummary {
                images: images[..MAX_HAVE_IMAGES].to_vec(),
                params: ChunkingParams::default(),
                base: Some(images[0]),
            }),
            ..req.clone()
        };
        assert_eq!(got, want);

        // A base the cap cuts off travels as no base, never as a frame
        // the decoder refuses.
        let mut past = req;
        if let Some(h) = past.have.as_mut() {
            h.base = images.last().copied();
        }
        let DrvMsg::Request(got) = DrvMsg::decode(DrvMsg::Request(past).encode()).unwrap() else {
            panic!()
        };
        assert_eq!(got.have.map(|h| h.base), Some(None));
    }

    #[test]
    fn truncated_messages_rejected() {
        let enc = DrvMsg::Offer(offer()).encode();
        for cut in [1usize, 8, 20, enc.len() - 1] {
            assert!(DrvMsg::decode(enc.slice(0..cut)).is_err());
        }
        assert!(DrvMsg::decode(Bytes::from_static(&[42])).is_err());

        // Every field is mandatory: a request that stops before its zone
        // field and a heartbeat that stops before its coverage list are
        // truncated frames like any other.
        let zoneless = DrvMsg::Request(request()).encode();
        let coverageless = DrvMsg::MirrorHeartbeat {
            location: "mirror1:1071".into(),
            chunk_count: 42,
            load: 3,
            coverage: Vec::new(),
        }
        .encode();
        for (frame, tail) in [(zoneless, 1), (coverageless, 4)] {
            assert!(matches!(
                DrvMsg::decode(frame.slice(0..frame.len() - tail)),
                Err(DrvError::Codec(_))
            ));
        }
        // A plan's mirror list is count-prefixed; an `Option<String>`
        // (absent, or one location) in its place does not decode.
        for mirror in [None, Some("mirror1:1071")] {
            let plan = chunk_plan();
            let mut b = BytesMut::new();
            plan.manifest.encode_into(&mut b);
            b.put_u32_le(plan.missing.len() as u32);
            for d in &plan.missing {
                b.put_u64_le(*d);
            }
            mirror.map(String::from).put(&mut b);
            assert!(matches!(
                get::<ChunkPlan>(b.freeze()),
                Err(DrvError::Codec(_))
            ));
        }
    }

    #[test]
    fn a_batched_report_is_the_body_of_a_lone_one() {
        let report = Activation {
            database: "orders".into(),
            driver: DriverId(2),
            version: Some(DriverVersion::new(2, 0, 0)),
            ok: false,
            detail: "load failed".into(),
        };
        let lone = report.clone().into_report().encode();
        assert_eq!(lone[0], Tag::ActivationReport.code());
        assert_eq!(lone[1..], encode(&report)[..]);
    }

    #[test]
    fn a_fetch_is_a_request_under_its_own_tag_and_its_answer_an_offer_then_a_file() {
        let fetch = DrvMsg::Fetch(request()).encode();
        assert_eq!(fetch[0], 21);
        assert_eq!(fetch[1..], DrvMsg::Request(request()).encode()[1..]);
        let offer = DrvOffer {
            location: String::new(),
            ..offer()
        };
        let frame = DrvMsg::OfferFile {
            offer: offer.clone(),
            payload: Bytes::from_static(b"wrapped"),
        }
        .encode();
        let alone = DrvMsg::Offer(offer).encode();
        assert_eq!(frame[0], 22);
        assert_eq!(frame[1..alone.len()], alone[1..]);
        assert_eq!(frame[alone.len()..], b"\x07\0\0\0wrapped"[..]);
    }

    #[test]
    fn a_reference_is_seventeen_bytes_and_its_answer_nineteen() {
        let reference = DrvMsg::RenewRef {
            current: DriverId(1),
            token: request().context_digest(),
        };
        assert_eq!(reference.encode().len(), 17);
        assert_eq!(DrvMsg::Renewed(offer().terms()).encode().len(), 19);
    }

    #[test]
    fn the_context_digest_ignores_only_the_kind() {
        let base = request();
        let digest = base.context_digest();
        let kinds = [
            RequestKind::Renewal {
                current: DriverId(3),
            },
            RequestKind::Extension {
                base: DriverId(3),
                name: "gis".into(),
            },
        ];
        for kind in kinds {
            let same = DrvRequest {
                kind,
                ..base.clone()
            };
            assert_eq!(same.context_digest(), digest);
            assert!(same.same_context(&base));
        }
        let others = [
            DrvRequest {
                zone: Some("east".into()),
                ..base.clone()
            },
            DrvRequest {
                user: "app2".into(),
                ..base.clone()
            },
            DrvRequest {
                options: Vec::new(),
                ..base.clone()
            },
            DrvRequest {
                have: Some(HaveSummary::default()),
                ..base.clone()
            },
        ];
        for other in others {
            assert_ne!(other.context_digest(), digest, "{other:?}");
            assert!(!other.same_context(&base), "{other:?}");
        }
    }

    #[test]
    fn notices_roundtrip() {
        for n in [
            DrvNotice::DriverAvailable {
                database: "orders".into(),
            },
            DrvNotice::DriverRevoked {
                database: "orders".into(),
            },
        ] {
            assert_eq!(DrvNotice::decode(n.encode()).unwrap(), n);
        }
    }

    #[test]
    fn error_from_preserves_detail() {
        let m = DrvMsg::error_from(&DrvError::PermissionDenied("client 10.0.0.9".into()));
        let DrvMsg::Error { code, message } = m else {
            panic!()
        };
        assert_eq!(code, DrvErrCode::PermissionDenied);
        assert!(message.contains("10.0.0.9"));
    }
}
