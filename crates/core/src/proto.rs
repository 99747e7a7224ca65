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
//! * [`DrvMsg::Release`] — lease give-back, used by the license-server
//!   case study (§5.4.2).
//!
//! plus the depot, mirror-directory, activation-report and batch frames
//! documented on [`DrvMsg`]. Push notifications over dedicated channels
//! (§3.2) use [`DrvNotice`].
//!
//! Every frame has exactly one encoding and every field is mandatory;
//! the byte layout of all 18 tags is the table in `DESIGN.md` §2.

use bytes::{BufMut, Bytes, BytesMut};

use netsim::codec::{
    get_bytes, get_code, get_i64, get_items, get_opt, get_opt_str, get_str, get_u16, get_u32,
    get_u64, get_u64s, get_u8, put_bytes, put_opt_str, put_str, put_u64s, wire_enum, CodecError,
};

use crate::chunk::{get_image_size, ChunkManifest, ChunkingParams};
use crate::descriptor::{BinaryFormat, DriverId};
use crate::error::{DrvError, DrvResult};
use crate::policy::{ExpirationPolicy, RenewPolicy, TransferMethod};
use crate::sign::Signature;
use crate::transfer::{self, Certificate};
use crate::version::{ApiVersion, DriverVersion};

/// Conventional port Drivolution servers listen on (like DHCP's 67).
pub const DRIVOLUTION_PORT: u16 = 1070;

/// Why the client is asking for a driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// First download (cold bootstrap).
    Bootstrap,
    /// Lease renewal for a driver the client already runs.
    Renewal {
        /// The currently loaded driver.
        current: DriverId,
    },
    /// Lazy fetch of an extension package for a loaded driver
    /// (paper §5.4.1, the `ClassNotFoundException` path).
    Extension {
        /// The loaded base driver.
        base: DriverId,
        /// Stable extension name (e.g. `gis`, `nls-fr_FR`).
        name: String,
    },
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

impl HaveSummary {
    fn encode_into(&self, b: &mut BytesMut) {
        let images = self.images.get(..MAX_HAVE_IMAGES).unwrap_or(&self.images);
        b.put_u16_le(u16::try_from(images.len()).unwrap_or(u16::MAX));
        put_u64s(b, images);
        self.params.encode_into(b);
        // A base the cap cut off would make the frame undecodable; the
        // request then just carries no base.
        match self.base.filter(|d| images.contains(d)) {
            Some(d) => {
                b.put_u8(1);
                b.put_u64_le(d);
            }
            None => b.put_u8(0),
        }
    }

    fn decode(buf: &mut Bytes) -> DrvResult<Self> {
        let n_images = get_u16(buf, "have image count")?;
        if usize::from(n_images) > MAX_HAVE_IMAGES {
            return Err(DrvError::Codec(format!(
                "have image count {n_images} exceeds the cap"
            )));
        }
        let images = get_u64s(buf, "have image digests", n_images.into())?;
        let params = ChunkingParams::decode(buf)?;
        let base = get_opt(buf, "have base presence", |buf| get_u64(buf, "have base"))?;
        if base.is_some_and(|d| !images.contains(&d)) {
            return Err(DrvError::Codec("have base is not among its images".into()));
        }
        Ok(HaveSummary {
            images,
            params,
            base,
        })
    }
}

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
const _: () = assert!(MAX_HAVE_IMAGES <= u16::MAX as usize, "the count is a u16");

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
    pub missing: Vec<u64>,
    /// Mirror replicas serving `CHUNK_REQUEST`s, best candidate first
    /// (server-ranked by health, zone proximity, and load). Empty when
    /// the primary is the only source.
    pub mirrors: Vec<MirrorCandidate>,
}

impl ChunkPlan {
    fn encode_into(&self, b: &mut BytesMut) {
        self.manifest.encode_into(b);
        b.put_u32_le(self.missing.len() as u32);
        put_u64s(b, &self.missing);
        b.put_u16_le(self.mirrors.len() as u16);
        for m in &self.mirrors {
            put_str(b, &m.location);
            put_opt_str(b, m.zone.as_deref());
            b.put_u8(u8::from(m.healthy));
        }
    }

    fn decode(buf: &mut Bytes) -> DrvResult<Self> {
        let manifest = ChunkManifest::decode(buf)?;
        let n_missing = get_u32(buf, "plan missing count")?;
        let missing = get_u64s(buf, "plan missing digests", n_missing)?;
        let n = get_u16(buf, "plan mirror count")?;
        // A candidate is at least a string length, a presence byte and a
        // health byte.
        let mirrors = get_items(buf, "plan mirrors", n.into(), 6, |buf| {
            Ok::<_, DrvError>(MirrorCandidate {
                location: get_str(buf, "mirror location")?,
                zone: get_opt_str(buf, "mirror zone")?,
                healthy: get_u8(buf, "mirror health")? != 0,
            })
        })?;
        Ok(ChunkPlan {
            manifest,
            missing,
            mirrors,
        })
    }
}

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
    pub options: Vec<(String, String)>,
    /// Depot `HAVE` summary: cached content the server may revalidate or
    /// delta against instead of re-shipping the full image.
    pub have: Option<HaveSummary>,
    /// Zone the client is in, when its machine is placed in a zone
    /// topology. The server ranks mirror candidates for this zone.
    pub zone: Option<String>,
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
}

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
    pub size: u64,
    /// Transfer method the server will use.
    pub transfer_method: TransferMethod,
    /// Options the bootloader must pass to the driver at load time
    /// (Table 2 `driver_options`).
    pub options: Vec<(String, String)>,
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

wire_enum! {
    /// Stable `DRIVOLUTION_ERROR` codes. A decoder reads a code it does
    /// not know as [`DrvErrCode::Internal`].
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
    }
}

impl DrvErrCode {
    /// Maps a protocol error into the crate error type.
    pub fn into_error(self, message: String) -> DrvError {
        match self {
            DrvErrCode::InvalidDatabase => DrvError::InvalidDatabase(message),
            DrvErrCode::NoMatchingDriver => DrvError::NoMatchingDriver(message),
            DrvErrCode::PermissionDenied => DrvError::PermissionDenied(message),
            DrvErrCode::NoDriverAvailable => DrvError::LeaseExpired(message),
            DrvErrCode::Internal => DrvError::Internal(message),
        }
    }

    /// Classifies a server-side error for the wire.
    pub fn classify(e: &DrvError) -> DrvErrCode {
        match e {
            DrvError::InvalidDatabase(_) => DrvErrCode::InvalidDatabase,
            DrvError::NoMatchingDriver(_) => DrvErrCode::NoMatchingDriver,
            DrvError::PermissionDenied(_) => DrvErrCode::PermissionDenied,
            DrvError::LeaseExpired(_) => DrvErrCode::NoDriverAvailable,
            _ => DrvErrCode::Internal,
        }
    }
}

/// A Drivolution protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum DrvMsg {
    /// Unicast `DRIVOLUTION_REQUEST`.
    Request(DrvRequest),
    /// Broadcast `DRIVOLUTION_DISCOVER` (same payload; servers that can
    /// serve it answer with offers).
    Discover(DrvRequest),
    /// `DRIVOLUTION_OFFER`.
    Offer(DrvOffer),
    /// `DRIVOLUTION_ERROR` with an "optional detailed error message in
    /// plain text".
    Error {
        /// Error class.
        code: DrvErrCode,
        /// Plain-text detail.
        message: String,
    },
    /// `FILE_REQUEST(driver_file)`.
    FileRequest {
        /// Location token from the offer.
        location: String,
        /// Transfer method to use.
        transfer_method: TransferMethod,
    },
    /// `FILE_DATA(binary_code)` — payload is transfer-wrapped (see
    /// [`crate::transfer`]).
    FileData {
        /// Wrapped driver bytes.
        payload: Bytes,
    },
    /// Lease give-back (license server, §5.4.2).
    Release {
        /// Database whose driver is returned.
        database: String,
        /// Releasing user.
        user: String,
        /// The returned driver.
        driver: DriverId,
    },
    /// Acknowledgement of a release.
    ReleaseOk,
    /// `CHUNK_REQUEST(digests)` — content-addressed fetch of depot
    /// chunks, served by the primary server or a mirror replica.
    ChunkRequest {
        /// Chunk digests to fetch.
        digests: Vec<u64>,
        /// Transfer method to wrap the chunk set with.
        transfer_method: TransferMethod,
    },
    /// `CHUNK_DATA(chunk_set)` — payload is a transfer-wrapped
    /// [`crate::chunk::ChunkSet`] encoding.
    ChunkData {
        /// Wrapped chunk-set bytes.
        payload: Bytes,
    },
    /// `MIRROR_ANNOUNCE` — a depot mirror registers itself with the
    /// primary's mirror directory (location, zone). Sent at launch and
    /// whenever a heartbeat is answered with `known: false`.
    MirrorAnnounce {
        /// `host:port` the mirror serves `CHUNK_REQUEST`s on.
        location: String,
        /// Zone the mirror is placed in, if any.
        zone: Option<String>,
    },
    /// `MIRROR_HEARTBEAT` — a registered mirror's periodic liveness and
    /// coverage report; silence quarantines and eventually evicts it.
    MirrorHeartbeat {
        /// `host:port` the mirror announced under.
        location: String,
        /// Chunks the mirror's replica currently holds.
        chunk_count: u64,
        /// Cumulative raw chunk bytes the mirror has served.
        served_bytes: u64,
        /// Requests served since the previous heartbeat (load signal for
        /// candidate ranking).
        load: u32,
        /// Chunk digests the replica holds, sorted, capped at
        /// [`MAX_HEARTBEAT_COVERAGE`]. The directory ranks candidates
        /// that already hold a plan's missing chunks ahead of ones that
        /// would read through to the primary.
        coverage: Vec<u64>,
    },
    /// `MIRROR_ACK` — the directory's answer to an announce or
    /// heartbeat.
    MirrorAck {
        /// `false` when the heartbeat named an unregistered mirror (it
        /// was evicted or the server restarted): re-announce.
        known: bool,
    },
    /// `ACTIVATION_REPORT` — a bootloader's best-effort report that it
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
    },
    /// `ACTIVATION_ACK` — the server's answer to an activation report.
    ActivationAck,
    /// `RENEW_BATCH` — a renewal aggregator's coalesced frame: one entry
    /// per client due in the same scheduler tick, carrying the
    /// originating client host (licensing, lease logging, and rollout
    /// wave membership key on the client, never the aggregator) plus
    /// that client's renewal request. The server answers with one
    /// [`DrvMsg::OfferBatch`] whose entries pair up by position.
    /// Unbatched clients keep sending single `Request` frames.
    RenewBatch {
        /// Per-client entries: `(client_host, request)`.
        entries: Vec<(String, DrvRequest)>,
    },
    /// `OFFER_BATCH` — the server's positional reply to a
    /// [`DrvMsg::RenewBatch`]: per entry, either a full offer or the
    /// typed error that client's individual request would have produced.
    OfferBatch {
        /// Positional replies, one per batch entry.
        replies: Vec<Result<DrvOffer, (DrvErrCode, String)>>,
    },
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
    },
}

/// `xfer` (`DESIGN.md` §2): a transfer method as its `i8` code.
fn put_xfer(b: &mut BytesMut, method: TransferMethod) {
    b.put_i8(method.code());
}

fn get_xfer(buf: &mut Bytes) -> Result<TransferMethod, CodecError> {
    get_code(buf, "transfer", |c| TransferMethod::from_code(c as i8))
}

/// A `DRIVOLUTION_ERROR` code; one this side does not know is
/// [`DrvErrCode::Internal`] (`DESIGN.md` §2, "else internal").
fn get_err_code(buf: &mut Bytes, what: &str) -> Result<DrvErrCode, CodecError> {
    get_u16(buf, what).map(|c| DrvErrCode::from_code(c).unwrap_or(DrvErrCode::Internal))
}

fn put_req(b: &mut BytesMut, r: &DrvRequest) {
    match &r.kind {
        RequestKind::Bootstrap => b.put_u8(0),
        RequestKind::Renewal { current } => {
            b.put_u8(1);
            b.put_i64_le(current.0);
        }
        RequestKind::Extension { base, name } => {
            b.put_u8(2);
            b.put_i64_le(base.0);
            put_str(b, name);
        }
    }
    put_str(b, &r.database);
    put_str(b, &r.user);
    put_opt_str(b, r.password.as_deref());
    put_str(b, &r.api_name);
    put_opt_str(b, r.api_version.map(|v| v.to_string()).as_deref());
    put_str(b, &r.client_platform);
    put_opt_str(b, r.preferred_format.map(|f| f.to_string()).as_deref());
    put_opt_str(b, r.preferred_version.map(|v| v.to_string()).as_deref());
    put_xfer(b, r.transfer_method);
    b.put_u16_le(r.options.len() as u16);
    for (k, v) in &r.options {
        put_str(b, k);
        put_str(b, v);
    }
    match &r.have {
        Some(h) => {
            b.put_u8(1);
            h.encode_into(b);
        }
        None => b.put_u8(0),
    }
    put_opt_str(b, r.zone.as_deref());
}

/// One `key = value` option of a request or an offer: two strings, 8
/// bytes at least.
fn get_option(buf: &mut Bytes) -> DrvResult<(String, String)> {
    Ok((get_str(buf, "option key")?, get_str(buf, "option value")?))
}

fn get_req(buf: &mut Bytes) -> DrvResult<DrvRequest> {
    let kind = match get_u8(buf, "request kind")? {
        0 => RequestKind::Bootstrap,
        1 => RequestKind::Renewal {
            current: DriverId(get_i64(buf, "current driver")?),
        },
        2 => RequestKind::Extension {
            base: DriverId(get_i64(buf, "base driver")?),
            name: get_str(buf, "extension name")?,
        },
        t => return Err(DrvError::Codec(format!("unknown request kind {t}"))),
    };
    let database = get_str(buf, "database")?;
    let user = get_str(buf, "user")?;
    let password = get_opt_str(buf, "password")?;
    let api_name = get_str(buf, "api name")?;
    let api_version = get_opt_str(buf, "api version")?
        .map(|s| s.parse::<ApiVersion>())
        .transpose()?;
    let client_platform = get_str(buf, "client platform")?;
    let preferred_format = get_opt_str(buf, "preferred format")?
        .map(|s| BinaryFormat::parse(&s))
        .transpose()?;
    let preferred_version = get_opt_str(buf, "preferred version")?
        .map(|s| s.parse::<DriverVersion>())
        .transpose()?;
    let transfer_method = get_xfer(buf)?;
    let n_opt = get_u16(buf, "request option count")?;
    let options = get_items(buf, "request options", n_opt.into(), 8, get_option)?;
    let have = get_opt(buf, "have presence", HaveSummary::decode)?;
    let zone = get_opt_str(buf, "client zone")?;
    Ok(DrvRequest {
        kind,
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
    })
}

fn put_offer(b: &mut BytesMut, o: &DrvOffer) {
    b.put_i64_le(o.driver_id.0);
    put_opt_str(b, o.driver_version.map(|v| v.to_string()).as_deref());
    b.put_u8(u8::from(o.same_driver));
    b.put_u64_le(o.lease_ms);
    b.put_u8(o.renew_policy.code());
    b.put_u8(o.expiration_policy.code());
    put_str(b, o.format.as_str());
    put_str(b, &o.location);
    b.put_u64_le(o.size);
    put_xfer(b, o.transfer_method);
    b.put_u16_le(o.options.len() as u16);
    for (k, v) in &o.options {
        put_str(b, k);
        put_str(b, v);
    }
    match &o.signature {
        Some(s) => {
            b.put_u8(1);
            b.put_slice(&s.encode());
        }
        None => b.put_u8(0),
    }
    match o.content_digest {
        Some(d) => {
            b.put_u8(1);
            b.put_u64_le(d);
        }
        None => b.put_u8(0),
    }
    match &o.chunked {
        Some(p) => {
            b.put_u8(1);
            p.encode_into(b);
        }
        None => b.put_u8(0),
    }
}

fn get_offer(buf: &mut Bytes) -> DrvResult<DrvOffer> {
    let driver_id = DriverId(get_i64(buf, "driver id")?);
    let driver_version = get_opt_str(buf, "driver version")?
        .map(|s| s.parse::<DriverVersion>())
        .transpose()?;
    let same_driver = get_u8(buf, "same driver")? != 0;
    let lease_ms = get_u64(buf, "lease ms")?;
    let renew_policy = get_code(buf, "renew policy", RenewPolicy::from_code)?;
    let expiration_policy = get_code(buf, "expiration policy", ExpirationPolicy::from_code)?;
    let format = BinaryFormat::parse(&get_str(buf, "format")?)?;
    let location = get_str(buf, "location")?;
    let size = get_image_size(buf, "size")?;
    let transfer_method = get_xfer(buf)?;
    let n_opt = get_u16(buf, "offer option count")?;
    let options = get_items(buf, "offer options", n_opt.into(), 8, get_option)?;
    let signature = get_opt(buf, "signature presence", |buf| {
        if buf.len() < 16 {
            return Err(DrvError::Codec("truncated signature".into()));
        }
        Ok(Signature::decode(buf.split_to(16))?)
    })?;
    let content_digest = get_opt(buf, "digest presence", |buf| get_u64(buf, "content digest"))?;
    let chunked = get_opt(buf, "chunk plan presence", ChunkPlan::decode)?;
    Ok(DrvOffer {
        driver_id,
        driver_version,
        same_driver,
        lease_ms,
        renew_policy,
        expiration_policy,
        format,
        location,
        size,
        transfer_method,
        options,
        signature,
        content_digest,
        chunked,
    })
}

wire_enum! {
    /// Frame tags: the first byte of every [`DrvMsg`] wire frame, one per
    /// variant (`DESIGN.md` §2). `encode` writes them from its exhaustive
    /// match, and `decode` matches every one of them with no `_` arm.
    enum Tag: u8 {
        Request = 0,
        Discover = 1,
        Offer = 2,
        Error = 3,
        FileRequest = 4,
        FileData = 5,
        Release = 6,
        ReleaseOk = 7,
        ChunkRequest = 8,
        ChunkData = 9,
        MirrorAnnounce = 10,
        MirrorHeartbeat = 11,
        MirrorAck = 12,
        ActivationReport = 13,
        ActivationAck = 14,
        RenewBatch = 15,
        OfferBatch = 16,
        MirrorComplaint = 17,
    }
}

/// A bulk reply frame: `tag`, the `u32` length [`put_bytes`] would write,
/// then the transfer envelope itself.
fn bulk_frame(
    tag: Tag,
    method: TransferMethod,
    payload: &[u8],
    cert: Option<&Certificate>,
) -> DrvResult<Bytes> {
    let envelope = transfer::wrapped_len(method, payload.len(), cert);
    let mut b = BytesMut::with_capacity(1 + 4 + envelope);
    b.put_u8(tag.code());
    b.put_u32_le(envelope as u32);
    transfer::wrap_into(&mut b, method, payload, cert)?;
    Ok(b.freeze())
}

impl DrvMsg {
    /// Serializes the message.
    pub fn encode(&self) -> Bytes {
        // Bulk frames reserve their exact length; the rest are small.
        let mut b = BytesMut::with_capacity(match self {
            DrvMsg::FileData { payload } | DrvMsg::ChunkData { payload } => 5 + payload.len(),
            _ => 0,
        });
        match self {
            DrvMsg::Request(r) => {
                b.put_u8(Tag::Request.code());
                put_req(&mut b, r);
            }
            DrvMsg::Discover(r) => {
                b.put_u8(Tag::Discover.code());
                put_req(&mut b, r);
            }
            DrvMsg::Offer(o) => {
                b.put_u8(Tag::Offer.code());
                put_offer(&mut b, o);
            }
            DrvMsg::Error { code, message } => {
                b.put_u8(Tag::Error.code());
                b.put_u16_le(code.code());
                put_str(&mut b, message);
            }
            DrvMsg::FileRequest {
                location,
                transfer_method,
            } => {
                b.put_u8(Tag::FileRequest.code());
                put_str(&mut b, location);
                put_xfer(&mut b, *transfer_method);
            }
            DrvMsg::FileData { payload } => {
                b.put_u8(Tag::FileData.code());
                put_bytes(&mut b, payload);
            }
            DrvMsg::Release {
                database,
                user,
                driver,
            } => {
                b.put_u8(Tag::Release.code());
                put_str(&mut b, database);
                put_str(&mut b, user);
                b.put_i64_le(driver.0);
            }
            DrvMsg::ReleaseOk => b.put_u8(Tag::ReleaseOk.code()),
            DrvMsg::ChunkRequest {
                digests,
                transfer_method,
            } => {
                b.put_u8(Tag::ChunkRequest.code());
                b.put_u32_le(digests.len() as u32);
                put_u64s(&mut b, digests);
                put_xfer(&mut b, *transfer_method);
            }
            DrvMsg::ChunkData { payload } => {
                b.put_u8(Tag::ChunkData.code());
                put_bytes(&mut b, payload);
            }
            DrvMsg::MirrorAnnounce { location, zone } => {
                b.put_u8(Tag::MirrorAnnounce.code());
                put_str(&mut b, location);
                put_opt_str(&mut b, zone.as_deref());
            }
            DrvMsg::MirrorHeartbeat {
                location,
                chunk_count,
                served_bytes,
                load,
                coverage,
            } => {
                b.put_u8(Tag::MirrorHeartbeat.code());
                put_str(&mut b, location);
                b.put_u64_le(*chunk_count);
                b.put_u64_le(*served_bytes);
                b.put_u32_le(*load);
                let capped = coverage.get(..MAX_HEARTBEAT_COVERAGE).unwrap_or(coverage);
                b.put_u32_le(capped.len() as u32);
                put_u64s(&mut b, capped);
            }
            DrvMsg::MirrorAck { known } => {
                b.put_u8(Tag::MirrorAck.code());
                b.put_u8(u8::from(*known));
            }
            DrvMsg::ActivationReport {
                database,
                driver,
                version,
                ok,
                detail,
            } => {
                b.put_u8(Tag::ActivationReport.code());
                put_str(&mut b, database);
                b.put_i64_le(driver.0);
                put_opt_str(&mut b, version.map(|v| v.to_string()).as_deref());
                b.put_u8(u8::from(*ok));
                put_str(&mut b, detail);
            }
            DrvMsg::ActivationAck => b.put_u8(Tag::ActivationAck.code()),
            DrvMsg::RenewBatch { entries } => {
                b.put_u8(Tag::RenewBatch.code());
                b.put_u32_le(entries.len() as u32);
                for (host, req) in entries {
                    put_str(&mut b, host);
                    put_req(&mut b, req);
                }
            }
            DrvMsg::OfferBatch { replies } => {
                b.put_u8(Tag::OfferBatch.code());
                b.put_u32_le(replies.len() as u32);
                for reply in replies {
                    match reply {
                        Ok(offer) => {
                            b.put_u8(0);
                            put_offer(&mut b, offer);
                        }
                        Err((code, message)) => {
                            b.put_u8(1);
                            b.put_u16_le(code.code());
                            put_str(&mut b, message);
                        }
                    }
                }
            }
            DrvMsg::MirrorComplaint {
                location,
                digest,
                detail,
            } => {
                b.put_u8(Tag::MirrorComplaint.code());
                put_str(&mut b, location);
                b.put_u64_le(*digest);
                put_str(&mut b, detail);
            }
        }
        b.freeze()
    }

    /// Deserializes a message.
    ///
    /// # Errors
    ///
    /// [`DrvError::Codec`] on malformed frames.
    pub fn decode(mut buf: Bytes) -> DrvResult<Self> {
        match get_code(&mut buf, "drv msg tag", Tag::from_code)? {
            Tag::Request => Ok(DrvMsg::Request(get_req(&mut buf)?)),
            Tag::Discover => Ok(DrvMsg::Discover(get_req(&mut buf)?)),
            Tag::Offer => Ok(DrvMsg::Offer(get_offer(&mut buf)?)),
            Tag::Error => Ok(DrvMsg::Error {
                code: get_err_code(&mut buf, "error code")?,
                message: get_str(&mut buf, "error message")?,
            }),
            Tag::FileRequest => Ok(DrvMsg::FileRequest {
                location: get_str(&mut buf, "location")?,
                transfer_method: get_xfer(&mut buf)?,
            }),
            Tag::FileData => Ok(DrvMsg::FileData {
                payload: get_bytes(&mut buf, "file payload")?,
            }),
            Tag::Release => Ok(DrvMsg::Release {
                database: get_str(&mut buf, "database")?,
                user: get_str(&mut buf, "user")?,
                driver: DriverId(get_i64(&mut buf, "driver")?),
            }),
            Tag::ReleaseOk => Ok(DrvMsg::ReleaseOk),
            Tag::ChunkRequest => {
                let n = get_u32(&mut buf, "chunk request count")?;
                Ok(DrvMsg::ChunkRequest {
                    digests: get_u64s(&mut buf, "chunk request digests", n)?,
                    transfer_method: get_xfer(&mut buf)?,
                })
            }
            Tag::ChunkData => Ok(DrvMsg::ChunkData {
                payload: get_bytes(&mut buf, "chunk payload")?,
            }),
            Tag::MirrorAnnounce => Ok(DrvMsg::MirrorAnnounce {
                location: get_str(&mut buf, "mirror location")?,
                zone: get_opt_str(&mut buf, "mirror zone")?,
            }),
            Tag::MirrorHeartbeat => {
                let location = get_str(&mut buf, "mirror location")?;
                let chunk_count = get_u64(&mut buf, "mirror chunk count")?;
                let served_bytes = get_u64(&mut buf, "mirror served bytes")?;
                let load = get_u32(&mut buf, "mirror load")?;
                let n = get_u32(&mut buf, "mirror coverage count")?;
                if n as usize > MAX_HEARTBEAT_COVERAGE {
                    return Err(DrvError::Codec(format!(
                        "mirror coverage count {n} exceeds the cap"
                    )));
                }
                Ok(DrvMsg::MirrorHeartbeat {
                    location,
                    chunk_count,
                    served_bytes,
                    load,
                    coverage: get_u64s(&mut buf, "mirror coverage digests", n)?,
                })
            }
            Tag::MirrorAck => Ok(DrvMsg::MirrorAck {
                known: get_u8(&mut buf, "mirror ack")? != 0,
            }),
            Tag::ActivationReport => Ok(DrvMsg::ActivationReport {
                database: get_str(&mut buf, "activation database")?,
                driver: DriverId(get_i64(&mut buf, "activation driver")?),
                version: get_opt_str(&mut buf, "activation version")?
                    .map(|s| s.parse::<DriverVersion>())
                    .transpose()?,
                ok: get_u8(&mut buf, "activation ok")? != 0,
                detail: get_str(&mut buf, "activation detail")?,
            }),
            Tag::ActivationAck => Ok(DrvMsg::ActivationAck),
            Tag::RenewBatch => {
                let n = get_u32(&mut buf, "renew batch count")?;
                // An entry is at least a host length prefix (4) and a
                // request with every string empty (26).
                let entries = get_items(&mut buf, "renew batch", n, 30, |buf| {
                    Ok::<_, DrvError>((get_str(buf, "batch client host")?, get_req(buf)?))
                })?;
                Ok(DrvMsg::RenewBatch { entries })
            }
            Tag::OfferBatch => {
                let n = get_u32(&mut buf, "offer batch count")?;
                // The shortest reply is an error: kind, code, empty message.
                let replies = get_items(&mut buf, "offer batch", n, 7, |buf| {
                    match get_u8(buf, "offer batch entry kind")? {
                        0 => Ok(Ok(get_offer(buf)?)),
                        1 => Ok(Err((
                            get_err_code(buf, "offer batch error code")?,
                            get_str(buf, "offer batch error message")?,
                        ))),
                        t => Err(DrvError::Codec(format!("bad offer batch entry kind {t}"))),
                    }
                })?;
                Ok(DrvMsg::OfferBatch { replies })
            }
            Tag::MirrorComplaint => Ok(DrvMsg::MirrorComplaint {
                location: get_str(&mut buf, "complaint location")?,
                digest: get_u64(&mut buf, "complaint digest")?,
                detail: get_str(&mut buf, "complaint detail")?,
            }),
        }
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
        bulk_frame(Tag::FileData, method, payload, cert)
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
        bulk_frame(Tag::ChunkData, method, payload, cert)
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

/// Push notifications on the dedicated bootloader↔server channel (§3.2:
/// "a dedicated channel … allows the Drivolution Server to immediately
/// signal that a new driver is available").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DrvNotice {
    /// A new driver for `database` is available; renew now.
    DriverAvailable {
        /// Affected database.
        database: String,
    },
    /// The driver for `database` has been revoked; apply the expiration
    /// policy now.
    DriverRevoked {
        /// Affected database.
        database: String,
    },
}

impl DrvNotice {
    /// Serializes the notice.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        match self {
            DrvNotice::DriverAvailable { database } => {
                b.put_u8(0);
                put_str(&mut b, database);
            }
            DrvNotice::DriverRevoked { database } => {
                b.put_u8(1);
                put_str(&mut b, database);
            }
        }
        b.freeze()
    }

    /// Deserializes a notice.
    ///
    /// # Errors
    ///
    /// [`DrvError::Codec`] on malformed frames.
    pub fn decode(mut buf: Bytes) -> DrvResult<Self> {
        match get_u8(&mut buf, "notice tag")? {
            0 => Ok(DrvNotice::DriverAvailable {
                database: get_str(&mut buf, "database")?,
            }),
            1 => Ok(DrvNotice::DriverRevoked {
                database: get_str(&mut buf, "database")?,
            }),
            t => Err(DrvError::Codec(format!("unknown notice tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::sign::SigningKey;

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
                served_bytes: 5_000_000,
                load: 17,
                coverage: vec![0xaa, 0xbb, 0xcc],
            },
            DrvMsg::MirrorHeartbeat {
                location: "mirror2:1071".into(),
                chunk_count: 0,
                served_bytes: 0,
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
                        DrvRequest {
                            kind: RequestKind::Renewal {
                                current: DriverId(3),
                            },
                            ..request()
                        },
                    ),
                    ("app0002".into(), request()),
                ],
            },
            DrvMsg::RenewBatch {
                entries: Vec::new(),
            },
            DrvMsg::OfferBatch {
                replies: vec![
                    Ok(offer()),
                    Err((DrvErrCode::PermissionDenied, "no license available".into())),
                    Ok(DrvOffer {
                        same_driver: true,
                        chunked: Some(chunk_plan()),
                        ..offer()
                    }),
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
        assert_eq!(plain, Bytes::from(payload));
        // A failed wrap leaves no frame.
        assert!(DrvMsg::file_data_frame(TransferMethod::Sealed, b"x", None).is_err());
        assert!(DrvMsg::chunk_data_frame(TransferMethod::Any, b"x", None).is_err());
    }

    #[test]
    fn hostile_batch_counts_are_rejected() {
        // A hostile count cannot reserve more entries than the frame
        // could possibly hold, for either batch frame.
        for tag in [15u8, 16u8] {
            let mut b = BytesMut::new();
            b.put_u8(tag);
            b.put_u32_le(u32::MAX);
            assert!(DrvMsg::decode(b.freeze()).is_err(), "tag {tag}");
        }
    }

    #[test]
    fn batch_item_minima_are_real_encodings() {
        // `get_items` refuses a count its frame cannot hold at the item
        // minimum, so a minimum above the shortest real entry would
        // refuse valid frames: the shortest entries fill theirs exactly.
        let entries = vec![(String::new(), DrvRequest::bootstrap("", "", "", "")); 3];
        let batch = DrvMsg::RenewBatch { entries };
        assert_eq!(batch.encode().len(), 1 + 4 + 3 * 30);
        let reply = Err((DrvErrCode::Internal, String::new()));
        let replies = DrvMsg::OfferBatch {
            replies: vec![reply; 3],
        };
        assert_eq!(replies.encode().len(), 1 + 4 + 3 * 7);
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
            served_bytes: 0,
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
        ] {
            let e = code.into_error("m".into());
            assert_eq!(DrvErrCode::classify(&e), code);
        }
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
        put_u64s(&mut b, images);
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
        let decoded = HaveSummary::decode(&mut have_bytes(&images, None));
        assert!(matches!(decoded, Err(DrvError::Codec(_))), "{decoded:?}");
        let at_cap = HaveSummary::decode(&mut have_bytes(&images[1..], None)).unwrap();
        assert_eq!(at_cap.images.len(), MAX_HAVE_IMAGES);
    }

    #[test]
    fn have_base_outside_its_images_is_rejected() {
        let decoded = HaveSummary::decode(&mut have_bytes(&[1, 2], Some(3)));
        assert!(matches!(decoded, Err(DrvError::Codec(_))), "{decoded:?}");
        let ok = HaveSummary::decode(&mut have_bytes(&[1, 2], Some(2))).unwrap();
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
            served_bytes: 1000,
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
            put_opt_str(&mut b, mirror);
            assert!(matches!(
                ChunkPlan::decode(&mut b.freeze()),
                Err(DrvError::Codec(_))
            ));
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
