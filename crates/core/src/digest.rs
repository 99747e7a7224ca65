//! Content digests — the workspace's stand-in for cryptographic hashes.
//!
//! A word-folded FNV-1a variant is used everywhere a real system would
//! use SHA-256. This is a deliberate, documented simulation (see
//! DESIGN.md): the reproduction models *where* integrity and trust
//! checks happen, not their cryptographic strength.
//!
//! The fold's one step takes eight bytes (one little-endian `u64` lane
//! XORed in, multiplied by the FNV prime, then an xorshift to carry the
//! high bits back down — FNV's multiply only propagates upward). A single
//! chain of such steps is bound by the multiply's latency, not by memory,
//! so whole blocks of `STRIPES` lanes are folded side by side: lane *k* of
//! every block goes into state *k*, each state starts from its own step
//! of the incoming hash, and the states are then folded into the hash in
//! order like any other lanes. What is left — fewer lanes than a block,
//! then fewer bytes than a lane — is folded as a single chain, so an
//! input shorter than one block (every fingerprint, session key and
//! keystream prefix in the workspace) has the value it always had.
//!
//! Per lane the step is a bijection on the state it is folded into, and
//! injective in the lane. Of two equal-length inputs that differ in one
//! lane of a block, exactly one stripe state therefore differs when the
//! blocks end; the ordered combine is injective in that state, and every
//! step after it is a bijection on the hash, so the two can never
//! collide. A lane or byte behind the blocks is the single-chain case.
//! The single-bit-flip detection every chunk/image verification in this
//! workspace relies on is thus structural, not probabilistic
//! (`tests/digest_contract.rs` flips every bit of every input up to three
//! blocks long, and pins golden values on both sides of every boundary).
//!
//! The exact output is part of the workspace's wire contract (chunk
//! digests, `HAVE` summaries, depot keys); both ends always come from
//! this one definition, so there is no cross-version digest negotiation —
//! and consequently changing this definition (as the switch from
//! byte-wise FNV-1a to the word fold did, and the stripes after it)
//! re-keys every content-addressed store: persisted depot entries hashed
//! by an older build fail revalidation and are discarded and re-fetched
//! cold, which is the content-addressing design's safe failure mode.

use bytes::Bytes;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// One lane step of the fold, defined here only: the sealed channel's
/// counter-mode keystream (`transfer.rs`) steps a hoisted prefix with it.
#[inline]
pub(crate) fn fold_lane(h: u64, lane: u64) -> u64 {
    let h = (h ^ lane).wrapping_mul(FNV_PRIME);
    h ^ (h >> 31)
}

/// Independent fold states a block is spread over; a block is
/// `8 * STRIPES` bytes. Picked by measurement (`EXPERIMENTS.md`, "Six
/// serial chains").
const STRIPES: usize = 8;

/// The fold, defined here only, over input cut the way `as_chunks` cuts
/// bytes: whole `blocks` striped over [`STRIPES`] states (state *k*
/// seeded with `fold_lane(h, k)`) that are then folded into `h` in order,
/// the remaining `lanes` one by one, then a byte-wise `tail`. Streaming:
/// `lane(i, item)` is asked for lane *i* when the fold takes it, so an
/// item may be a `u64` in hand, bytes to read, or bytes to rewrite on the
/// way ([`fold_words_rewriting`]) — same loop, same speed.
#[inline(always)]
fn fold_stream<L>(
    mut h: u64,
    blocks: impl ExactSizeIterator<Item = [L; STRIPES]>,
    lanes: impl Iterator<Item = L>,
    tail: impl Iterator<Item = u8>,
    mut lane: impl FnMut(u64, L) -> u64,
) -> u64 {
    let mut i = 0;
    if blocks.len() != 0 {
        let mut states: [u64; STRIPES] = std::array::from_fn(|k| fold_lane(h, k as u64));
        for block in blocks {
            for (state, item) in states.iter_mut().zip(block) {
                *state = fold_lane(*state, lane(i, item));
                i += 1;
            }
        }
        for state in states {
            h = fold_lane(h, state);
        }
    }
    for item in lanes {
        h = fold_lane(h, lane(i, item));
        i += 1;
    }
    tail.fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Folds `data` into `h`: [`fold_stream`] reading the lanes as they are.
/// Shared by [`fnv1a64`] and [`fnv1a64_parts`] so both digest families
/// speed up together and stay mutually consistent.
#[inline]
fn fold_words(h: u64, data: &[u8]) -> u64 {
    let (lanes, tail) = data.as_chunks::<8>();
    let (blocks, lanes) = lanes.as_chunks::<STRIPES>();
    fold_stream(
        h,
        blocks.iter().map(|block| block.each_ref()),
        lanes.iter(),
        tail.iter().copied(),
        |_, lane| u64::from_le_bytes(*lane),
    )
}

/// [`fold_words`] of `folded` while `data` becomes `stored`, where
/// `rewrite(i, lane) == (stored, folded)` is asked once per lane *i* of
/// `data`: one pass where a transform and a digest of its input or output
/// would be two. The bytes behind the last whole lane go through as one
/// zero-padded lane of which only their own count is stored and folded,
/// so `rewrite` must keep byte positions apart (an XOR does).
#[inline]
pub(crate) fn fold_words_rewriting(
    h: u64,
    data: &mut [u8],
    rewrite: impl Fn(u64, u64) -> (u64, u64),
) -> u64 {
    let (lanes, tail) = data.as_chunks_mut::<8>();
    let (blocks, lanes) = lanes.as_chunks_mut::<STRIPES>();
    let whole = blocks.len() * STRIPES + lanes.len();
    let mut last = [0; 8];
    last.iter_mut().zip(tail.iter()).for_each(|(l, t)| *l = *t);
    let (stored, folded) = rewrite(whole as u64, u64::from_le_bytes(last));
    tail.iter_mut()
        .zip(stored.to_le_bytes())
        .for_each(|(t, s)| *t = s);
    fold_stream(
        h,
        blocks.iter_mut().map(|block| block.each_mut()),
        lanes.iter_mut(),
        folded.to_le_bytes().into_iter().take(tail.len()),
        |i, lane| {
            let (stored, folded) = rewrite(i, u64::from_le_bytes(*lane));
            *lane = stored.to_le_bytes();
            folded
        },
    )
}

/// Word-folded FNV-1a 64-bit digest of `data`.
pub fn fnv1a64(data: &[u8]) -> u64 {
    fold_words(FNV_OFFSET, data)
}

/// Bytes together with the [`fnv1a64`] digest this process computed
/// from them, so one pass serves every layer an image travels through.
/// Hashing is the only constructor: a digest that arrived over the wire
/// can be compared with one of these, never put into one.
#[derive(Clone, Debug)]
pub struct Digested {
    bytes: Bytes,
    digest: u64,
}

impl Digested {
    /// Hashes `bytes`.
    pub fn of(bytes: Bytes) -> Self {
        let digest = fnv1a64(&bytes);
        Digested { bytes, digest }
    }

    /// The bytes.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Their digest.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// Digest of several byte strings, order-sensitive and
/// concatenation-ambiguity-free (each part is length-prefixed).
pub fn fnv1a64_parts(parts: &[&[u8]]) -> u64 {
    parts.iter().fold(FNV_OFFSET, |h, part| {
        fold_words(parts_prefix(h, part.len()), part)
    })
}

/// The state of [`fnv1a64_parts`] when parts so far left it at `h` and a
/// part of `next_len` bytes comes next: fold that part's bytes into it.
pub(crate) fn parts_prefix(h: u64, next_len: usize) -> u64 {
    fold_words(h, &(next_len as u64).to_le_bytes())
}

/// [`fnv1a64`] of the little-endian bytes of `lanes`, which are never
/// written out.
pub fn fnv1a64_lanes(lanes: &[u64]) -> u64 {
    let (blocks, lanes) = lanes.as_chunks::<STRIPES>();
    fold_stream(
        FNV_OFFSET,
        blocks.iter().copied(),
        lanes.iter().copied(),
        std::iter::empty(),
        |_, lane| lane,
    )
}

/// Deterministic high-entropy byte stream (xorshift64), seeded so
/// distinct seeds give unrelated streams. Used wherever the workspace
/// needs bytes that statistically resemble compiled/compressed driver
/// code — archive padding, benchmark images, chunking tests — so
/// content-defined chunking sees realistic boundary distributions. One
/// definition, because the stream's exact bytes feed recorded benchmark
/// baselines (`BENCH_cdc.json`) and drifting copies would silently
/// change what different harnesses measure.
pub fn entropy_blob(len: usize, seed: u64) -> Vec<u8> {
    let mut x = 0x243F_6A88_85A3_08D3u64 ^ seed;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_blob_is_deterministic_and_seed_sensitive() {
        assert_eq!(entropy_blob(64, 1), entropy_blob(64, 1));
        assert_ne!(entropy_blob(64, 1), entropy_blob(64, 2));
        // Roughly uniform: all byte values appear over a long stream.
        let blob = entropy_blob(64 * 1024, 3);
        let distinct: std::collections::HashSet<u8> = blob.iter().copied().collect();
        assert_eq!(distinct.len(), 256);
    }

    #[test]
    fn digest_is_stable() {
        assert_eq!(fnv1a64(b"driver"), fnv1a64(b"driver"));
        assert_ne!(fnv1a64(b"driver"), fnv1a64(b"Driver"));
        assert_ne!(fnv1a64(b""), 0);
    }

    #[test]
    fn lanes_digest_as_their_little_endian_bytes() {
        // What `HAVE` chunk lists are keyed by: 0, 1, 7, 8, 9 and 200
        // digests, on both sides of one block of lanes.
        let digests: Vec<u64> = (0..200).map(|i| fnv1a64(&[i as u8])).collect();
        for n in [0, 1, 7, 8, 9, 200] {
            let (lanes, _) = digests.split_at(n);
            let bytes: Vec<u8> = lanes.iter().flat_map(|d| d.to_le_bytes()).collect();
            assert_eq!(fnv1a64_lanes(lanes), fnv1a64(&bytes), "{n} lanes");
        }
    }

    #[test]
    fn parts_are_unambiguous() {
        // ("ab","c") must differ from ("a","bc").
        assert_ne!(fnv1a64_parts(&[b"ab", b"c"]), fnv1a64_parts(&[b"a", b"bc"]));
        // And from the flat concatenation.
        assert_ne!(fnv1a64_parts(&[b"abc"]), fnv1a64(b"abc"));
    }
}
