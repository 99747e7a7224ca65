//! Content-addressed chunking for driver distribution.
//!
//! The depot subsystem splits driver images into chunks keyed by their
//! [`fnv1a64`] digest. A [`ChunkManifest`] describes an image as an
//! ordered list of chunk digests plus a digest over the whole image;
//! given the manifest and the chunks a client already holds, an upgrade
//! from vN to vN+1 only transfers the chunks that changed.
//!
//! Two chunking strategies are supported, described by
//! [`ChunkingParams`]:
//!
//! * **Fixed-size** — chunk boundaries at multiples of a fixed size.
//!   Cheap, but an insertion or deletion shifts every byte after the
//!   edit point, invalidating every later chunk: a one-byte
//!   size-changing edit degenerates a delta upgrade into a near-full
//!   transfer.
//! * **Content-defined (CDC, the default)** — boundaries where a Gear
//!   rolling hash over the last bytes matches a mask, bounded by
//!   min/avg/max chunk sizes. Boundaries are a function of local
//!   content, so they re-synchronize a few chunks after any
//!   size-shifting edit and the delta stays proportional to the edit,
//!   not to the image.
//!
//! CDC comes in two algorithms selected by the `norm` level of
//! [`ChunkingParams::Cdc`]:
//!
//! * **Level 0 — plain Gear**: one mask derived from `avg`, hashing
//!   every byte from the chunk start and checking from `min` on.
//!   (Digest *values* are a separate contract owned by [`fnv1a64`]:
//!   every party in a fleet hashes with that one definition, and
//!   changing it invalidates content-addressed caches across builds;
//!   stale persisted entries are then discarded and re-fetched cold.)
//! * **Level ≥ 1 — normalized (FastCDC-style)**: the first `min` bytes
//!   of every chunk are *skipped entirely* (no hashing — the min-skip
//!   fast path), a **harder** mask (`norm` extra bits) applies below the
//!   target average and an **easier** mask (`norm` fewer bits) between
//!   the average and the forced-max backstop. Cut sizes concentrate
//!   around `avg` instead of the long geometric tail plain Gear
//!   produces, and the easier above-average mask gives low-entropy
//!   regions more cut opportunities before the position-dependent
//!   forced max kicks in.
//!
//! **The scan.** A Gear step is `h = (h << 1) + GEAR[byte]`: a byte
//! folded *k* steps ago sits shifted left by *k* bits, so the *w* low bits
//! a mask tests depend on the last *w* bytes only, and nothing survives 64
//! steps. A chain may therefore start anywhere — from zero, *w* bytes
//! early — and test exactly as the one chain from the chunk start would.
//! One chain runs at the latency of its shift-and-add; the scan rolls
//! four, each over a quarter of the region, in lock-step under one
//! combined test. A lane that hits is not yet the cut: the lanes before
//! it finish their quarters first, one by one, and the earliest hit in
//! region order wins — the offset the single chain would have stopped at
//! (`tests/cdc_props.rs` keeps that chain as the reference).
//!
//! Manifests are built in a **single pass**: each chunk is digested with
//! the striped word fold ([`fnv1a64`]) the moment its boundary is found
//! (the bytes are still cache-hot from the boundary scan), instead of
//! cutting first and re-traversing the image per chunk. The boundaries
//! themselves come from the Gear scan alone, so a change to the digest
//! definition moves every chunk's name and no chunk's edges.
//!
//! Because boundaries are fully determined by `(bytes, params)`, any two
//! parties chunking the same image under the same params derive
//! identical manifests — no boundary negotiation is needed beyond
//! carrying the params in the manifest and `HAVE` summaries.
//!
//! Chunk payloads travel as a [`ChunkSet`] — a digest-keyed bundle that
//! is transfer-wrapped like any driver file (see [`crate::transfer`]), so
//! the plain/checksum/sealed security ladder applies to deltas too.

use bytes::{BufMut, Bytes, BytesMut};

use netsim::codec::{get_bytes, get_items, wire_frame, Capped, CodecError, Wire, WireAs};

use crate::digest::{fnv1a64, Digested};
use crate::error::{DrvError, DrvResult};

/// Default chunk size (bytes) for fixed-size chunking. Small enough that
/// single-section edits to a driver image keep most chunks stable, large
/// enough that manifests stay tiny relative to the image.
pub const DEFAULT_CHUNK_SIZE: u32 = 4096;

/// Default CDC minimum chunk size (bytes).
pub const DEFAULT_CDC_MIN: u32 = 1024;
/// Default CDC target average chunk size (bytes); the boundary mask is
/// derived from its floor power of two.
pub const DEFAULT_CDC_AVG: u32 = 4096;
/// Default CDC maximum chunk size (bytes); a boundary is forced here
/// when no content-defined cut appears earlier.
pub const DEFAULT_CDC_MAX: u32 = 16384;

/// Default CDC normalization level: masks of `±2` bits around the
/// target average (FastCDC's NC=2), the workspace default.
pub const DEFAULT_CDC_NORM: u8 = 2;

/// Cap on the normalization level a codec accepts; beyond this the
/// masks degenerate (everything clamps) and a hostile frame gains
/// nothing but confusion.
pub const MAX_CDC_NORM: u8 = 8;

/// Wire kind byte of [`ChunkingParams::Fixed`].
const PARAMS_FIXED: u8 = 1;
/// Wire kind byte of [`ChunkingParams::Cdc`].
const PARAMS_CDC: u8 = 2;

/// How an image is split into chunks. Carried by [`ChunkManifest`] and
/// `HAVE` summaries so both ends of a delta derive identical boundaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChunkingParams {
    /// Fixed-size boundaries every `size` bytes (the last chunk may be
    /// short).
    Fixed {
        /// Chunk size in bytes (must be positive).
        size: u32,
    },
    /// Content-defined boundaries from a Gear rolling hash.
    Cdc {
        /// No boundary before `min` bytes into a chunk. At
        /// normalization level ≥ 1 these bytes are skipped outright
        /// (min-skip): hashing resumes `min` past each cut.
        min: u32,
        /// Target average chunk size; the base mask keeps one boundary
        /// per `2^floor(log2(avg))` positions on random data.
        avg: u32,
        /// A boundary is forced at `max` bytes when the hash never
        /// matches.
        max: u32,
        /// Normalization level: `0` is plain Gear (one mask, no
        /// min-skip); level `n ≥ 1` hardens the mask by
        /// `n` bits below `avg` and relaxes it by `n` bits between
        /// `avg` and `max`, concentrating chunk sizes around the
        /// target.
        norm: u8,
    },
}

impl Default for ChunkingParams {
    fn default() -> Self {
        ChunkingParams::Cdc {
            min: DEFAULT_CDC_MIN,
            avg: DEFAULT_CDC_AVG,
            max: DEFAULT_CDC_MAX,
            norm: DEFAULT_CDC_NORM,
        }
    }
}

impl std::fmt::Display for ChunkingParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkingParams::Fixed { size } => write!(f, "fixed/{size}"),
            ChunkingParams::Cdc {
                min,
                avg,
                max,
                norm: 0,
            } => write!(f, "cdc/{min}-{avg}-{max}"),
            ChunkingParams::Cdc {
                min,
                avg,
                max,
                norm,
            } => write!(f, "cdc/{min}-{avg}-{max}/n{norm}"),
        }
    }
}

impl ChunkingParams {
    /// Fixed-size chunking.
    pub fn fixed(size: u32) -> Self {
        ChunkingParams::Fixed { size }
    }

    /// Plain-Gear content-defined chunking (normalization level 0) with
    /// explicit bounds.
    pub fn cdc(min: u32, avg: u32, max: u32) -> Self {
        ChunkingParams::Cdc {
            min,
            avg,
            max,
            norm: 0,
        }
    }

    /// Normalized content-defined chunking with explicit bounds and
    /// level. Level 0 is exactly [`cdc`](Self::cdc).
    pub fn cdc_normalized(min: u32, avg: u32, max: u32, norm: u8) -> Self {
        ChunkingParams::Cdc {
            min,
            avg,
            max,
            norm,
        }
    }

    /// Structural validity: all sizes positive, and `min <= avg <= max`
    /// and `norm <= MAX_CDC_NORM` for CDC.
    ///
    /// # Errors
    ///
    /// [`DrvError::Codec`] describing the violation.
    pub fn validate(&self) -> DrvResult<()> {
        match *self {
            ChunkingParams::Fixed { size } => {
                if size == 0 {
                    return Err(DrvError::Codec("fixed chunk size zero".into()));
                }
            }
            ChunkingParams::Cdc {
                min,
                avg,
                max,
                norm,
            } => {
                if min == 0 || avg == 0 || max == 0 {
                    return Err(DrvError::Codec("cdc chunk bound zero".into()));
                }
                if min > avg || avg > max {
                    return Err(DrvError::Codec(format!(
                        "cdc bounds not ordered: min {min} avg {avg} max {max}"
                    )));
                }
                if norm > MAX_CDC_NORM {
                    return Err(DrvError::Codec(format!(
                        "cdc normalization level {norm} beyond {MAX_CDC_NORM}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Whether a server should honor these *client-supplied* params for
    /// a delta plan. Structural validity plus sanity floors/ceilings so
    /// a hostile `HAVE` summary cannot demand megachunk manifests or
    /// per-byte chunking (a million-entry manifest per request).
    pub fn delta_safe(&self) -> bool {
        if self.validate().is_err() {
            return false;
        }
        match *self {
            ChunkingParams::Fixed { size } => (256..=MAX_IMAGE_BYTES).contains(&u64::from(size)),
            ChunkingParams::Cdc { min, avg, max, .. } => {
                min >= 64 && avg >= 256 && u64::from(max) <= MAX_IMAGE_BYTES
            }
        }
    }

    /// Serializes the params: a kind byte, then `size` for fixed
    /// chunking or `min`, `avg`, `max` and the one-byte `norm` level for
    /// CDC (layout in `DESIGN.md` §2).
    pub fn encode_into(&self, b: &mut BytesMut) {
        match *self {
            ChunkingParams::Fixed { size } => {
                b.put_u8(PARAMS_FIXED);
                b.put_u32_le(size);
            }
            ChunkingParams::Cdc {
                min,
                avg,
                max,
                norm,
            } => {
                b.put_u8(PARAMS_CDC);
                b.put_u32_le(min);
                b.put_u32_le(avg);
                b.put_u32_le(max);
                b.put_u8(norm);
            }
        }
    }

    /// Deserializes params written by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// [`DrvError::Codec`] on truncation, an unknown kind byte, or
    /// structurally invalid bounds.
    pub fn decode(buf: &mut Bytes) -> DrvResult<Self> {
        let params = match u8::get(buf, "chunking kind")? {
            PARAMS_FIXED => ChunkingParams::Fixed {
                size: u32::get(buf, "fixed chunk size")?,
            },
            PARAMS_CDC => ChunkingParams::Cdc {
                min: u32::get(buf, "cdc min")?,
                avg: u32::get(buf, "cdc avg")?,
                max: u32::get(buf, "cdc max")?,
                norm: u8::get(buf, "cdc norm level")?,
            },
            k => return Err(DrvError::Codec(format!("unknown chunking kind {k}"))),
        };
        params.validate()?;
        Ok(params)
    }
}

/// Gear table: one pseudo-random 64-bit constant per byte value,
/// generated by splitmix64 so the table is deterministic across builds
/// (chunk boundaries are part of the wire contract).
const GEAR: [u64; 256] = {
    const fn splitmix64(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut t = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        // Feed the index through two rounds so neighboring entries are
        // uncorrelated.
        t[i] = splitmix64(splitmix64(i as u64));
        i += 1;
    }
    t
};

/// Base boundary mask for a target average chunk size:
/// `floor(log2(avg))` low bits. On random data the hash matches the
/// mask once per `2^bits` positions.
fn cdc_mask_bits(avg: u32) -> u32 {
    31 - avg.max(2).leading_zeros()
}

/// The two normalized masks around the target average: the harder one
/// (`norm` extra bits, applied below `avg`) and the easier one (`norm`
/// fewer bits, applied between `avg` and `max`). Clamped so both stay
/// usable for any accepted level.
fn norm_masks(avg: u32, norm: u8) -> (u64, u64) {
    let bits = cdc_mask_bits(avg);
    let hard = (bits + u32::from(norm)).min(62);
    let easy = bits.saturating_sub(u32::from(norm)).max(1);
    ((1u64 << hard) - 1, (1u64 << easy) - 1)
}

/// Expected chunk length under CDC bounds — the capacity hint for cut
/// and manifest vectors.
fn expected_chunk(min: u32, avg: u32) -> usize {
    (min as usize + (avg as usize) / 2).max(1)
}

/// Chains [`first_cut`] rolls side by side, and bytes of the easy-mask
/// region it is handed per call; both picked by measurement
/// (`EXPERIMENTS.md`, "One chain left").
const LANES: usize = 4;
const EASY_BLOCK: usize = 512;

/// One Gear step.
#[inline(always)]
fn roll(h: u64, b: u8) -> u64 {
    (h << 1).wrapping_add(GEAR[b as usize])
}

/// The hash of `bytes` rolled from zero.
fn rolled(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0, |h, b| roll(h, *b))
}

/// Rolls `h` over `bytes` as one chain: the number of bytes consumed when
/// `h & mask` first reads zero, or `None` with `h` left at the end.
fn chain_cut(h: &mut u64, bytes: &[u8], mask: u64) -> Option<usize> {
    for (i, b) in bytes.iter().enumerate() {
        *h = roll(*h, *b);
        if *h & mask == 0 {
            return Some(i + 1);
        }
    }
    None
}

/// [`chain_cut`] for a low-bit `mask`, [`LANES`] chains at a time (module
/// docs, "The scan"): equal segments, lane 0 from the incoming `h`, the
/// others from zero plus the `w` bytes before their segment, one combined
/// test per step. Regions too short for that, and the bytes behind the
/// last segment, are one chain. On `None`, `h` is exact in its low `w`
/// bits.
fn first_cut(h: &mut u64, region: &[u8], mask: u64) -> Option<usize> {
    let w = (64 - mask.leading_zeros()) as usize;
    let seg = region.len() / LANES;
    if seg < 4 * w {
        return chain_cut(h, region, mask);
    }
    let (s0, rest) = region.split_at(seg);
    let (s1, rest) = rest.split_at(seg);
    let (s2, rest) = rest.split_at(seg);
    let (s3, tail) = rest.split_at(seg);
    let warm = |before: &[u8]| rolled(before.split_at(seg - w).1);
    let [mut h0, mut h1, mut h2, mut h3]: [u64; LANES] = [*h, warm(s0), warm(s1), warm(s2)];
    let mut done = 0;
    for (((b0, b1), b2), b3) in s0.iter().zip(s1).zip(s2).zip(s3) {
        h0 = roll(h0, *b0);
        h1 = roll(h1, *b1);
        h2 = roll(h2, *b2);
        h3 = roll(h3, *b3);
        done += 1;
        if (h0 & mask == 0) | (h1 & mask == 0) | (h2 & mask == 0) | (h3 & mask == 0) {
            return Some(earliest_hit([(h0, s0), (h1, s1), (h2, s2)], done, mask));
        }
    }
    *h = h3;
    chain_cut(h, tail, mask).map(|c| LANES * seg + c)
}

/// The first cut in region order once some lane hit after `done` steps:
/// per lane but the last, its own hit at `done` or a later one in the
/// rest of its segment; failing all of those, the last lane's. Out of
/// line: once per chunk, and the lock-step loop needs the registers.
#[inline(never)]
fn earliest_hit(lanes: [(u64, &[u8]); LANES - 1], done: usize, mask: u64) -> usize {
    let mut base = 0;
    for (mut h, seg) in lanes {
        if h & mask == 0 {
            return base + done;
        }
        if let Some(c) = chain_cut(&mut h, seg.split_at(done).1, mask) {
            return base + done + c;
        }
        base += seg.len();
    }
    base + done
}

/// The single-pass chunking driver: walks `bytes` once under `params`,
/// invoking `emit(start, end)` for every chunk boundary pair in image
/// order. Every public cut/split/manifest entry point routes through
/// here so boundary semantics have exactly one definition.
///
/// # Panics
///
/// Panics when `params` is structurally invalid.
fn for_each_chunk(bytes: &[u8], params: &ChunkingParams, mut emit: impl FnMut(usize, usize)) {
    // Params off the wire or a `meta` file were validated where they were
    // decoded, so only a caller's hand-built value can fail here.
    params.validate().expect("invalid chunking params");
    let chunk_len = |rest: &[u8]| match *params {
        ChunkingParams::Fixed { size } => rest.len().min(size as usize),
        // One rule for every level: `skip` bytes that cannot end a
        // chunk, the harder mask up to the target average, the easier
        // one from there to the forced-max backstop. The normalized
        // levels never hash the skipped bytes (min-skip). Plain Gear
        // (level 0: both masks are the same) hashes from the chunk start
        // and may cut right after byte `min`, so it skips one byte fewer,
        // of which the hash still holds the last 64.
        ChunkingParams::Cdc {
            min,
            avg,
            max,
            norm,
        } => {
            let (mask_hard, mask_easy) = norm_masks(avg, norm);
            let skip = (min - u32::from(norm == 0)) as usize;
            let window = rest.get(..max as usize).unwrap_or(rest);
            if window.len() <= skip {
                return window.len();
            }
            let (hard, easy) = window.split_at(window.len().min(avg as usize));
            let (skipped, hard) = hard.split_at(skip);
            let seen = skipped.split_at(skip.saturating_sub(64)).1;
            let mut h = if norm == 0 { rolled(seen) } else { 0 };
            let mut at = skip;
            std::iter::once((hard, mask_hard))
                .chain(easy.chunks(EASY_BLOCK).map(|block| (block, mask_easy)))
                .find_map(|(region, mask)| {
                    let cut = first_cut(&mut h, region, mask).map(|c| at + c);
                    at += region.len();
                    cut
                })
                .unwrap_or(window.len())
        }
    };
    let (mut start, mut rest) = (0, bytes);
    while !rest.is_empty() {
        let len = chunk_len(rest);
        emit(start, start + len);
        start += len;
        rest = rest.split_at(len).1;
    }
}

/// Cut points (exclusive chunk end offsets) of `bytes` under `params`.
///
/// # Panics
///
/// Panics when `params` is structurally invalid.
pub fn cut_points(bytes: &[u8], params: &ChunkingParams) -> Vec<usize> {
    let mut cuts = Vec::with_capacity(match *params {
        ChunkingParams::Fixed { size } => bytes.len().div_ceil(size.max(1) as usize),
        ChunkingParams::Cdc { min, avg, .. } => bytes.len() / expected_chunk(min, avg) + 1,
    });
    for_each_chunk(bytes, params, |_, end| cuts.push(end));
    cuts
}

/// Splits `bytes` into manifest-order chunks under `params` (zero-copy
/// slices).
pub fn split_with(bytes: &Bytes, params: &ChunkingParams) -> Vec<Bytes> {
    let mut out = Vec::new();
    for_each_chunk(bytes, params, |start, end| {
        out.push(bytes.slice(start..end))
    });
    out
}

/// Largest driver image a frame may describe or an assembly may build
/// (the largest chunk [`ChunkingParams::delta_safe`] admits): a manifest
/// may name one chunk many times, so the parts alone bound nothing.
pub const MAX_IMAGE_BYTES: u64 = 64 << 20;

wire_frame! {
    /// Ordered chunk-digest description of one driver image (`MANIFEST`,
    /// `DESIGN.md` §2).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ChunkManifest {
        /// Digest of the complete image bytes.
        pub content_digest: u64,
        /// Image size in bytes.
        pub total_size: u64 as ImageSize,
        /// Chunking strategy that produced the boundaries; re-deriving cut
        /// points from `(bytes, params)` reproduces the chunk list exactly.
        pub params: ChunkingParams,
        /// Per-chunk digests, in image order.
        pub chunks: Vec<u64> as Capped<u32>,
    }
}

impl ChunkManifest {
    /// Builds the manifest of `bytes` under fixed-size chunking.
    ///
    /// # Panics
    ///
    /// Panics when `chunk_size` is zero.
    pub fn of(bytes: &[u8], chunk_size: u32) -> Self {
        Self::of_with(bytes, &ChunkingParams::fixed(chunk_size))
    }

    /// Builds the manifest of `bytes` under the given chunking params,
    /// in a single pass: each chunk is digested the moment its boundary
    /// is found, while its bytes are still cache-hot from the boundary
    /// scan, instead of collecting cut points and re-traversing.
    ///
    /// # Panics
    ///
    /// Panics when `params` is structurally invalid.
    pub fn of_with(bytes: &[u8], params: &ChunkingParams) -> Self {
        let mut chunks = Vec::with_capacity(match *params {
            ChunkingParams::Fixed { size } => bytes.len().div_ceil(size.max(1) as usize),
            ChunkingParams::Cdc { min, avg, .. } => bytes.len() / expected_chunk(min, avg) + 1,
        });
        for_each_chunk(bytes, params, |start, end| {
            chunks.push(fnv1a64(&bytes[start..end]));
        });
        ChunkManifest {
            content_digest: fnv1a64(bytes),
            total_size: bytes.len() as u64,
            params: *params,
            chunks,
        }
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Digests in this manifest that are absent from `have` (preserving
    /// manifest order, deduplicated).
    pub fn missing_given(&self, have: &[u64]) -> Vec<u64> {
        let have_set: std::collections::HashSet<u64> = have.iter().copied().collect();
        let mut seen = std::collections::HashSet::new();
        self.chunks
            .iter()
            .copied()
            .filter(|d| !have_set.contains(d) && seen.insert(*d))
            .collect()
    }

    /// Verifies that `bytes` matches this manifest exactly (size, every
    /// chunk digest under the manifest's own params, and the whole-image
    /// digest).
    ///
    /// # Errors
    ///
    /// [`DrvError::BadPackage`] on any mismatch.
    pub fn verify(&self, bytes: &[u8]) -> DrvResult<()> {
        if bytes.len() as u64 != self.total_size {
            return Err(DrvError::BadPackage(format!(
                "image size {} does not match manifest size {}",
                bytes.len(),
                self.total_size
            )));
        }
        if fnv1a64(bytes) != self.content_digest {
            return Err(DrvError::BadPackage(
                "assembled image digest does not match manifest".into(),
            ));
        }
        // Single pass: re-derive boundaries and digest each chunk as it
        // is cut, comparing against the manifest in stride.
        let mut i = 0usize;
        let mut mismatch: Option<usize> = None;
        for_each_chunk(bytes, &self.params, |start, end| {
            if mismatch.is_none()
                && self.chunks.get(i).copied() != Some(fnv1a64(&bytes[start..end]))
            {
                mismatch = Some(i);
            }
            i += 1;
        });
        if let Some(at) = mismatch {
            if at < self.chunks.len() {
                return Err(DrvError::BadPackage(format!("chunk {at} digest mismatch")));
            }
        }
        if i != self.chunks.len() {
            return Err(DrvError::BadPackage(format!(
                "chunk count {i} does not match manifest count {}",
                self.chunks.len()
            )));
        }
        Ok(())
    }

    /// Concatenates `parts`, this manifest's chunks in order, into one
    /// exactly sized buffer. `total_size` was read off the wire, so it
    /// sizes nothing: the parts are in hand, and their summed length must
    /// equal it before the one allocation is made.
    ///
    /// # Errors
    ///
    /// [`DrvError::BadPackage`] when the parts do not add up, or add up
    /// to more than [`MAX_IMAGE_BYTES`].
    pub fn join(&self, parts: &[Bytes]) -> DrvResult<Vec<u8>> {
        let held: usize = parts.iter().map(Bytes::len).sum();
        if held as u64 != self.total_size || self.total_size > MAX_IMAGE_BYTES {
            return Err(DrvError::BadPackage(format!(
                "image size {held} does not match manifest size {} within {MAX_IMAGE_BYTES} bytes",
                self.total_size
            )));
        }
        let mut out = Vec::with_capacity(held);
        for part in parts {
            out.extend_from_slice(part);
        }
        Ok(out)
    }

    /// Serializes the manifest into `b`.
    pub fn encode_into(&self, b: &mut BytesMut) {
        self.put(b);
    }

    /// Deserializes a manifest.
    ///
    /// # Errors
    ///
    /// [`DrvError::Codec`] on malformed or implausible frames (a size
    /// past [`MAX_IMAGE_BYTES`], or a chunk count the remaining buffer
    /// cannot hold, rejected before any allocation, see
    /// [`netsim::codec::get_items`]).
    pub fn decode(buf: &mut Bytes) -> DrvResult<Self> {
        Ok(Self::get(buf, "manifest")?)
    }
}

/// The layout of a `u64` image size (`size: u64 as ImageSize`), refused
/// past [`MAX_IMAGE_BYTES`].
#[derive(Debug)]
pub(crate) struct ImageSize;

impl WireAs<u64> for ImageSize {
    const MIN_BYTES: usize = 8;

    fn wire_len(_: &u64) -> usize {
        Self::MIN_BYTES
    }

    fn put(size: &u64, buf: &mut BytesMut) {
        size.put(buf);
    }

    fn get(buf: &mut Bytes, what: &str) -> Result<u64, CodecError> {
        let size = u64::get(buf, what)?;
        if size > MAX_IMAGE_BYTES {
            return Err(CodecError::new(format!(
                "{what} {size} beyond the {MAX_IMAGE_BYTES}-byte cap"
            )));
        }
        Ok(size)
    }
}

/// `PARAMS` (`DESIGN.md` §2).
impl Wire for ChunkingParams {
    const MIN_BYTES: usize = 5;

    fn wire_len(&self) -> usize {
        match self {
            ChunkingParams::Fixed { .. } => 1 + 4,
            ChunkingParams::Cdc { .. } => 1 + 3 * 4 + 1,
        }
    }

    fn put(&self, buf: &mut BytesMut) {
        self.encode_into(buf);
    }

    fn get(buf: &mut Bytes, _: &str) -> Result<Self, CodecError> {
        Ok(Self::decode(buf)?)
    }
}

/// A digest-keyed bundle of chunk payloads — the body of a
/// `CHUNK_DATA` message, transfer-wrapped like a driver file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChunkSet {
    /// `(digest, bytes)` pairs.
    pub chunks: Vec<(u64, Bytes)>,
}

impl ChunkSet {
    /// Serializes the set.
    pub fn encode(&self) -> Bytes {
        // Sized exactly up front: a buffer doubled up to a `CHUNK_DATA`
        // body allocates about twice the body and copies it log n times.
        let body: usize = self.chunks.iter().map(|(_, b)| 8 + 4 + b.len()).sum();
        let mut b = BytesMut::with_capacity(4 + body);
        b.put_u32_le(self.chunks.len() as u32);
        for (digest, bytes) in &self.chunks {
            b.put_u64_le(*digest);
            netsim::codec::put_bytes(&mut b, bytes);
        }
        b.freeze()
    }

    /// Deserializes a set, verifying that every payload matches its
    /// claimed digest (corrupted chunks are rejected here, before
    /// assembly).
    ///
    /// # Errors
    ///
    /// [`DrvError::Codec`] on malformed frames, [`DrvError::BadPackage`]
    /// on digest mismatches.
    pub fn decode(mut buf: Bytes) -> DrvResult<Self> {
        let count = u32::get(&mut buf, "chunk set count")?;
        // An entry is at least a digest (8) and a length prefix (4).
        let chunks = get_items(&mut buf, "chunk set", count, 12, |buf| {
            let digest = u64::get(buf, "chunk digest")?;
            let bytes = get_bytes(buf, "chunk payload")?;
            if fnv1a64(&bytes) != digest {
                return Err(DrvError::BadPackage(
                    "chunk payload does not match its digest".into(),
                ));
            }
            Ok((digest, bytes))
        })?;
        Ok(ChunkSet { chunks })
    }

    /// Total payload bytes in the set.
    pub fn payload_bytes(&self) -> u64 {
        self.chunks.iter().map(|(_, b)| b.len() as u64).sum()
    }
}

/// What an upgrade from `v1` to `v2` costs a depot client under a given
/// chunking: see [`delta_cost`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaCost {
    /// Total bytes of `v2` chunks absent from `v1`'s chunk set — the
    /// bytes that must travel.
    pub bytes: u64,
    /// Number of distinct missing chunks.
    pub missing_chunks: usize,
    /// Total chunks in `v2`'s manifest.
    pub total_chunks: usize,
}

/// Bytes a client holding `v1` must fetch to assemble `v2` under
/// `params`: the total size of distinct `v2` chunks absent from `v1`'s
/// chunk set. Shared by the CDC benchmark and the property tests so
/// both measure the same quantity.
///
/// # Panics
///
/// Panics when `params` is structurally invalid.
pub fn delta_cost(v1: &[u8], v2: &[u8], params: &ChunkingParams) -> DeltaCost {
    let m1 = ChunkManifest::of_with(v1, params);
    let v1_chunks: std::collections::HashSet<u64> = m1.chunks.iter().copied().collect();
    // One pass over v2: boundary, digest, and missing-set accounting per
    // chunk as it is cut — no second traversal for sizes.
    let mut bytes = 0u64;
    let mut total = 0usize;
    let mut missing = std::collections::HashSet::new();
    for_each_chunk(v2, params, |start, end| {
        total += 1;
        let digest = fnv1a64(&v2[start..end]);
        if !v1_chunks.contains(&digest) && missing.insert(digest) {
            bytes += (end - start) as u64;
        }
    });
    DeltaCost {
        bytes,
        missing_chunks: missing.len(),
        total_chunks: total,
    }
}

/// Builds the manifest of `bytes` and its digest-keyed chunk slices in
/// one boundary scan — the shape content indexes want when inserting or
/// deriving a foreign-params view of an image (manifest to serve,
/// chunks to index), without re-walking the image per consumer.
///
/// # Panics
///
/// Panics when `params` is structurally invalid.
pub fn manifest_and_chunks(
    bytes: &Bytes,
    params: &ChunkingParams,
) -> (ChunkManifest, Vec<(u64, Bytes)>) {
    manifest_and_chunks_of(&Digested::of(bytes.clone()), params)
}

/// [`manifest_and_chunks`] of an image that is already hashed.
pub fn manifest_and_chunks_of(
    image: &Digested,
    params: &ChunkingParams,
) -> (ChunkManifest, Vec<(u64, Bytes)>) {
    let bytes = image.bytes();
    let mut pairs: Vec<(u64, Bytes)> = Vec::new();
    for_each_chunk(bytes, params, |start, end| {
        pairs.push((fnv1a64(&bytes[start..end]), bytes.slice(start..end)));
    });
    let manifest = ChunkManifest {
        content_digest: image.digest(),
        total_size: bytes.len() as u64,
        params: *params,
        chunks: pairs.iter().map(|(d, _)| *d).collect(),
    };
    (manifest, pairs)
}

/// Reassembles an image from `available` chunks per `manifest` order and
/// verifies the result.
///
/// # Errors
///
/// [`DrvError::BadPackage`] when a chunk is missing or verification
/// fails.
pub fn assemble(
    manifest: &ChunkManifest,
    available: &std::collections::HashMap<u64, Bytes>,
) -> DrvResult<Bytes> {
    let mut parts = Vec::with_capacity(manifest.chunks.len());
    for (i, digest) in manifest.chunks.iter().enumerate() {
        let chunk = available.get(digest).ok_or_else(|| {
            DrvError::BadPackage(format!(
                "chunk {i} ({digest:016x}) unavailable for assembly"
            ))
        })?;
        parts.push(chunk.clone());
    }
    let bytes = Bytes::from(manifest.join(&parts)?);
    manifest.verify(&bytes)?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pinned checksum of the [`GEAR`] table (see
    /// `gear_table_is_stable`).
    const GEAR_TABLE_SUM: u64 = 0x8fa4_5dd5_08c1_1266;

    fn image(len: usize, seed: u8) -> Bytes {
        // High-entropy deterministic stream: CDC boundary statistics on
        // it match real (compressed/compiled) driver code.
        Bytes::from(crate::digest::entropy_blob(len, seed as u64))
    }

    #[test]
    fn manifest_roundtrip_and_verify() {
        let img = image(10_000, 1);
        let m = ChunkManifest::of(&img, 1024);
        assert_eq!(m.chunk_count(), 10);
        m.verify(&img).unwrap();

        let mut b = BytesMut::new();
        m.encode_into(&mut b);
        let round = ChunkManifest::decode(&mut b.freeze()).unwrap();
        assert_eq!(round, m);
    }

    #[test]
    fn cdc_manifest_roundtrip_and_verify() {
        let img = image(100_000, 7);
        let m = ChunkManifest::of_with(&img, &ChunkingParams::default());
        m.verify(&img).unwrap();
        assert_eq!(
            m.chunks.len(),
            split_with(&img, &ChunkingParams::default()).len()
        );

        let mut b = BytesMut::new();
        m.encode_into(&mut b);
        let round = ChunkManifest::decode(&mut b.freeze()).unwrap();
        assert_eq!(round, m);
    }

    #[test]
    fn cdc_cut_points_respect_bounds_and_cover_input() {
        let img = image(200_000, 2);
        let (min, avg, max) = (1024u32, 4096u32, 16384u32);
        let cuts = cut_points(&img, &ChunkingParams::cdc(min, avg, max));
        assert_eq!(*cuts.last().unwrap(), img.len());
        let mut start = 0usize;
        for (i, &end) in cuts.iter().enumerate() {
            let len = end - start;
            assert!(len <= max as usize, "chunk {i} too large: {len}");
            if end != img.len() {
                assert!(len >= min as usize, "chunk {i} too small: {len}");
            }
            start = end;
        }
        // The realized average is in the right ballpark: between min and
        // max, and within 4x of the target either way.
        let avg_real = img.len() / cuts.len();
        assert!(
            avg_real >= (avg / 4) as usize && avg_real <= (avg * 4) as usize,
            "realized average {avg_real} far from target {avg}"
        );
    }

    #[test]
    fn cdc_boundaries_survive_mid_image_insertion() {
        // The whole point of CDC: a size-shifting edit invalidates a
        // handful of chunks, not everything after the edit point.
        let v1 = image(256 * 1024, 3);
        let mut v2_bytes = v1.to_vec();
        let inserted = b"-- inserted license banner, v2 --";
        let at = v2_bytes.len() / 2;
        v2_bytes.splice(at..at, inserted.iter().copied());
        let v2 = Bytes::from(v2_bytes);

        let params = ChunkingParams::default();
        let m1 = ChunkManifest::of_with(&v1, &params);
        let m2 = ChunkManifest::of_with(&v2, &params);
        let missing = m2.missing_given(&m1.chunks);
        assert!(
            missing.len() <= 3,
            "insertion should cost a handful of chunks, not {} of {}",
            missing.len(),
            m2.chunk_count()
        );

        // The same edit under fixed-size chunking invalidates roughly
        // everything after the insertion point.
        let f1 = ChunkManifest::of(&v1, DEFAULT_CHUNK_SIZE);
        let f2 = ChunkManifest::of(&v2, DEFAULT_CHUNK_SIZE);
        let fixed_missing = f2.missing_given(&f1.chunks);
        assert!(
            fixed_missing.len() > f2.chunk_count() / 3,
            "expected fixed chunking to degrade: {} of {}",
            fixed_missing.len(),
            f2.chunk_count()
        );
    }

    #[test]
    fn verify_rejects_any_single_byte_flip() {
        let img = image(5000, 2);
        for params in [ChunkingParams::fixed(512), ChunkingParams::default()] {
            let m = ChunkManifest::of_with(&img, &params);
            for pos in [0usize, 511, 512, 2500, 4999] {
                let mut bad = img.to_vec();
                bad[pos] ^= 0x40;
                assert!(m.verify(&bad).is_err(), "flip at {pos} accepted ({params})");
            }
        }
    }

    #[test]
    fn missing_given_orders_and_dedups() {
        let img = image(4096, 3);
        let m = ChunkManifest::of(&img, 1024);
        assert_eq!(m.missing_given(&m.chunks), Vec::<u64>::new());
        let missing = m.missing_given(&m.chunks[..2]);
        assert_eq!(missing, m.chunks[2..].to_vec());
    }

    #[test]
    fn delta_between_versions_is_small() {
        // v2 differs from v1 only in one chunk-aligned region.
        let v1 = image(64 * 1024, 4);
        let mut v2_bytes = v1.to_vec();
        for b in &mut v2_bytes[8192..9216] {
            *b ^= 0xff;
        }
        let v2 = Bytes::from(v2_bytes);
        let m1 = ChunkManifest::of(&v1, 1024);
        let m2 = ChunkManifest::of(&v2, 1024);
        let missing = m2.missing_given(&m1.chunks);
        assert_eq!(missing.len(), 1, "only the edited chunk should differ");
    }

    #[test]
    fn chunk_set_roundtrip_rejects_corruption() {
        let img = image(3000, 5);
        let m = ChunkManifest::of(&img, 1000);
        let parts = split_with(&img, &ChunkingParams::fixed(1000));
        let set = ChunkSet {
            chunks: m.chunks.iter().copied().zip(parts).collect(),
        };
        let enc = set.encode();
        assert_eq!(ChunkSet::decode(enc.clone()).unwrap(), set);

        let mut bad = enc.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(ChunkSet::decode(Bytes::from(bad)).is_err());
    }

    #[test]
    fn assemble_rebuilds_and_verifies() {
        for params in [ChunkingParams::fixed(1024), ChunkingParams::default()] {
            let img = image(9999, 6);
            let m = ChunkManifest::of_with(&img, &params);
            let map: std::collections::HashMap<u64, Bytes> = m
                .chunks
                .iter()
                .copied()
                .zip(split_with(&img, &params))
                .collect();
            assert_eq!(assemble(&m, &map).unwrap(), img);

            let mut short = map.clone();
            short.remove(&m.chunks[m.chunk_count() / 2]);
            assert!(assemble(&m, &short).is_err());

            // The size field came off the wire: one that the chunks in
            // hand do not add up to is a bad package, never a reservation
            // (u64::MAX used to panic with `capacity overflow`).
            for (total_size, chunks) in [(u64::MAX, Vec::new()), (u64::MAX, m.chunks.clone())] {
                let forged = ChunkManifest {
                    total_size,
                    chunks,
                    ..m.clone()
                };
                assert!(matches!(
                    assemble(&forged, &map),
                    Err(DrvError::BadPackage(_))
                ));
            }
        }
    }

    #[test]
    fn decode_rejects_implausible_counts() {
        // A chunk count far beyond the frame must fail before any
        // allocation, including counts whose byte product overflows
        // 32-bit usize (the comparison is done in u64).
        let mut b = BytesMut::new();
        b.put_u64_le(1);
        b.put_u64_le(1);
        ChunkingParams::fixed(16).encode_into(&mut b);
        b.put_u32_le(u32::MAX);
        assert!(ChunkManifest::decode(&mut b.freeze()).is_err());

        // u32::MAX * 8 == 0x7_FFFF_FFF8 wraps to a small number in
        // 32-bit usize arithmetic; 0x2000_0001 * 8 wraps to exactly 8.
        for count in [u32::MAX, 0x2000_0001] {
            let mut b = BytesMut::new();
            b.put_u64_le(1);
            b.put_u64_le(1);
            ChunkingParams::fixed(16).encode_into(&mut b);
            b.put_u32_le(count);
            b.put_u64_le(0xdead);
            assert!(
                ChunkManifest::decode(&mut b.freeze()).is_err(),
                "count {count:#x} accepted"
            );
        }

        let mut b = BytesMut::new();
        b.put_u32_le(u32::MAX);
        assert!(ChunkSet::decode(b.freeze()).is_err());

        // 0x1555_5556 * 12 wraps to 8 in 32-bit usize arithmetic.
        let mut b = BytesMut::new();
        b.put_u32_le(0x1555_5556);
        b.put_u64_le(0xdead);
        assert!(ChunkSet::decode(b.freeze()).is_err());
    }

    fn size_stddev(cuts: &[usize]) -> f64 {
        let mut sizes = Vec::with_capacity(cuts.len());
        let mut start = 0usize;
        for &end in cuts {
            sizes.push((end - start) as f64);
            start = end;
        }
        let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
        (sizes.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / sizes.len() as f64).sqrt()
    }

    #[test]
    fn normalized_cuts_respect_bounds_and_tighten_the_distribution() {
        let img = image(512 * 1024, 9);
        let (min, avg, max) = (1024u32, 4096u32, 16384u32);
        let plain = cut_points(&img, &ChunkingParams::cdc(min, avg, max));
        let normd = cut_points(
            &img,
            &ChunkingParams::cdc_normalized(min, avg, max, DEFAULT_CDC_NORM),
        );
        for (label, cuts) in [("plain", &plain), ("normalized", &normd)] {
            assert_eq!(*cuts.last().unwrap(), img.len(), "{label} must cover");
            let mut start = 0usize;
            for (i, &end) in cuts.iter().enumerate() {
                let len = end - start;
                assert!(len <= max as usize, "{label} chunk {i} too large: {len}");
                if end != img.len() {
                    assert!(len >= min as usize, "{label} chunk {i} too small: {len}");
                }
                start = end;
            }
        }
        // Normalization's whole point: sizes concentrate around the
        // target average.
        assert!(
            size_stddev(&normd) < size_stddev(&plain),
            "normalized stddev {} not under plain {}",
            size_stddev(&normd),
            size_stddev(&plain)
        );
        // And level 0 through the normalized constructor is plain Gear.
        assert_eq!(
            plain,
            cut_points(&img, &ChunkingParams::cdc_normalized(min, avg, max, 0))
        );
    }

    #[test]
    fn normalized_default_manifest_verifies_and_survives_insertion() {
        let v1 = image(256 * 1024, 11);
        let params = ChunkingParams::default();
        assert!(matches!(params, ChunkingParams::Cdc { norm, .. } if norm == DEFAULT_CDC_NORM));
        let m1 = ChunkManifest::of_with(&v1, &params);
        m1.verify(&v1).unwrap();

        let mut v2 = v1.to_vec();
        let at = v2.len() / 2;
        v2.splice(at..at, b"normalized banner".iter().copied());
        let m2 = ChunkManifest::of_with(&v2, &params);
        m2.verify(&v2).unwrap();
        let missing = m2.missing_given(&m1.chunks);
        assert!(
            missing.len() <= 3,
            "normalized insertion cost {} of {} chunks",
            missing.len(),
            m2.chunk_count()
        );
    }

    #[test]
    fn params_codec_roundtrips_and_rejects_malformed_frames() {
        for p in [
            ChunkingParams::fixed(4096),
            ChunkingParams::fixed(u32::MAX),
            ChunkingParams::cdc(512, 2048, 8192),
            ChunkingParams::cdc_normalized(512, 2048, 8192, 1),
            ChunkingParams::default(),
            ChunkingParams::cdc_normalized(512, 2048, 8192, MAX_CDC_NORM),
        ] {
            let mut b = BytesMut::new();
            p.encode_into(&mut b);
            assert_eq!(ChunkingParams::decode(&mut b.freeze()).unwrap(), p);
        }
        // Unordered bounds and hostile levels are rejected.
        for bad in [
            ChunkingParams::cdc(4096, 1024, 512),
            ChunkingParams::cdc_normalized(512, 2048, 8192, MAX_CDC_NORM + 1),
            ChunkingParams::fixed(0),
        ] {
            let mut b = BytesMut::new();
            bad.encode_into(&mut b);
            assert!(ChunkingParams::decode(&mut b.freeze()).is_err());
        }
        // The kind byte is mandatory: a bare chunk size, and bounds
        // behind a `0` or `u32::MAX` word, are codec errors.
        for words in [
            &[4096u32][..],
            &[258],
            &[0, 512, 2048, 8192],
            &[u32::MAX, 512, 2048, 8192, 2],
        ] {
            let mut b = BytesMut::new();
            for w in words {
                b.put_u32_le(*w);
            }
            assert!(
                matches!(
                    ChunkingParams::decode(&mut b.freeze()),
                    Err(DrvError::Codec(_))
                ),
                "{words:?} accepted"
            );
        }
    }

    #[test]
    fn manifest_and_chunks_is_one_scan_worth_of_everything() {
        let img = image(200_000, 12);
        for params in [
            ChunkingParams::fixed(4096),
            ChunkingParams::cdc(1024, 4096, 16384),
            ChunkingParams::default(),
        ] {
            let (m, pairs) = manifest_and_chunks(&img, &params);
            assert_eq!(m, ChunkManifest::of_with(&img, &params));
            let slices = split_with(&img, &params);
            assert_eq!(pairs.len(), slices.len());
            for ((d, b), s) in pairs.iter().zip(&slices) {
                assert_eq!(b, s);
                assert_eq!(*d, fnv1a64(b));
            }
        }
    }

    #[test]
    fn gear_table_is_stable() {
        // Chunk boundaries are part of the wire contract: if the table
        // changes, every fleet's manifests silently diverge. Pin the
        // table via a checksum and require distinct entries.
        let sum: u64 = GEAR.iter().fold(0u64, |a, g| a.wrapping_add(*g));
        assert_eq!(sum, GEAR_TABLE_SUM, "gear table changed: {sum:#018x}");
        let distinct: std::collections::HashSet<u64> = GEAR.iter().copied().collect();
        assert_eq!(distinct.len(), 256, "gear entries must be distinct");
    }
}
