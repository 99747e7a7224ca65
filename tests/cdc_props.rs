//! Property tests for content-defined chunking: delta cost under random
//! size-shifting edits stays bounded by the edit, not the image — the
//! exact robustness fixed-size chunking lacks.

use proptest::prelude::*;

use drivolution::core::chunk::{cut_points, delta_cost, ChunkManifest, ChunkingParams};
use drivolution::core::entropy_blob as image;

/// Bytes a client holding `v1` must fetch for `v2` under `params`.
fn delta_bytes(v1: &[u8], v2: &[u8], params: &ChunkingParams) -> u64 {
    delta_cost(v1, v2, params).bytes
}

const IMG_LEN: usize = 128 * 1024;
const CDC_MAX: u64 = 16 * 1024; // ChunkingParams::default() max bound

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cdc_delta_stays_local_under_random_insertions(
        seed in any::<u64>(),
        pos_seed in any::<u32>(),
        ins_len in 1usize..400,
    ) {
        let v1 = image(IMG_LEN, seed);
        let at = pos_seed as usize % v1.len();
        let mut v2 = v1.clone();
        v2.splice(at..at, image(ins_len, seed ^ 0x5555));

        let cdc = delta_bytes(&v1, &v2, &ChunkingParams::default());
        // Bounded by a handful of max-size chunks around the edit plus
        // the inserted bytes — never proportional to the image.
        prop_assert!(
            cdc <= 4 * CDC_MAX + ins_len as u64,
            "insert {ins_len}B at {at}: cdc delta {cdc}B"
        );

        // Comparative: an edit in the first quarter forces the fixed
        // chunker to re-ship at least the back three quarters, which the
        // CDC bound above can never reach.
        if at < IMG_LEN / 4 {
            let fixed = delta_bytes(&v1, &v2, &ChunkingParams::fixed(4096));
            prop_assert!(
                cdc < fixed / 2,
                "insert at {at}: cdc {cdc}B not well under fixed {fixed}B"
            );
        }
    }

    #[test]
    fn cdc_delta_stays_local_under_random_deletions(
        seed in any::<u64>(),
        pos_seed in any::<u32>(),
        del_len in 1usize..400,
    ) {
        let v1 = image(IMG_LEN, seed);
        let at = pos_seed as usize % (v1.len() - 400);
        let mut v2 = v1.clone();
        v2.drain(at..at + del_len);

        let cdc = delta_bytes(&v1, &v2, &ChunkingParams::default());
        prop_assert!(
            cdc <= 4 * CDC_MAX,
            "delete {del_len}B at {at}: cdc delta {cdc}B"
        );

        if at < IMG_LEN / 4 {
            let fixed = delta_bytes(&v1, &v2, &ChunkingParams::fixed(4096));
            prop_assert!(
                cdc < fixed / 2,
                "delete at {at}: cdc {cdc}B not well under fixed {fixed}B"
            );
        }
    }

    #[test]
    fn normalized_cuts_respect_bounds_and_cover_for_arbitrary_params(
        seed in any::<u64>(),
        min in 64u32..2048,
        avg_factor in 1u32..6,
        max_factor in 1u32..6,
        norm in 0u32..5,
    ) {
        // Arbitrary ordered (min, avg, max) at every normalization
        // level: cuts must cover the input exactly, no chunk may
        // exceed max, and only the final chunk may undercut min.
        let (avg, max) = (min * avg_factor, min * avg_factor * max_factor);
        let img = image(96 * 1024, seed);
        let cuts = cut_points(
            &img,
            &ChunkingParams::cdc_normalized(min, avg, max, norm as u8),
        );
        prop_assert_eq!(*cuts.last().unwrap(), img.len());
        let mut start = 0usize;
        for (i, &end) in cuts.iter().enumerate() {
            let len = end - start;
            prop_assert!(end > start, "chunk {i} empty");
            prop_assert!(len <= max as usize, "chunk {i} over max: {len}");
            if end != img.len() {
                prop_assert!(len >= min as usize, "chunk {i} under min: {len}");
            }
            start = end;
        }
    }

    #[test]
    fn normalized_cuts_are_position_independent_after_insertion(
        seed in any::<u64>(),
        pos_seed in any::<u32>(),
        ins_len in 1usize..400,
        norm in 0u32..4,
    ) {
        // Position independence: once re-synchronized past an edit,
        // every later boundary is a pure function of content, so v2's
        // tail cuts are exactly v1's tail cuts shifted by the inserted
        // length — at every normalization level.
        const MAX: usize = 16 * 1024;
        let v1 = image(IMG_LEN, seed);
        let at = pos_seed as usize % v1.len();
        let mut v2 = v1.clone();
        v2.splice(at..at, image(ins_len, seed ^ 0x7777));

        let params = ChunkingParams::cdc_normalized(1024, 4096, MAX as u32, norm as u8);
        let cuts1 = cut_points(&v1, &params);
        let cuts2 = cut_points(&v2, &params);
        // Resync is complete a few max-chunks past the edit on
        // high-entropy data; compare the tails beyond that window.
        let window = at + 6 * MAX + ins_len;
        let tail1: Vec<usize> = cuts1
            .iter()
            .filter(|&&c| c + ins_len > window)
            .map(|&c| c + ins_len)
            .collect();
        let tail2: Vec<usize> = cuts2.iter().filter(|&&c| c > window).copied().collect();
        prop_assert_eq!(
            tail1,
            tail2,
            "tail cuts disagree after insert {} at {} (norm {})",
            ins_len,
            at,
            norm
        );
    }

    #[test]
    fn params_codec_roundtrips_including_legacy_frames(
        min in 64u32..2048,
        avg_factor in 1u32..6,
        max_factor in 1u32..6,
        norm in 0u32..9,
        fixed_size in 256u32..65536,
    ) {
        use bytes::{BufMut, BytesMut};
        let (avg, max) = (min * avg_factor, min * avg_factor * max_factor);
        // Every structurally valid params value survives the wire.
        for p in [
            ChunkingParams::fixed(fixed_size),
            ChunkingParams::cdc(min, avg, max),
            ChunkingParams::cdc_normalized(min, avg, max, norm as u8),
        ] {
            let mut b = BytesMut::new();
            p.encode_into(&mut b);
            prop_assert_eq!(ChunkingParams::decode(&mut b.freeze()).unwrap(), p);
        }
        // The kind byte is mandatory: bounds behind a `0` word and a
        // bare chunk size are typed codec errors, never a guess.
        let mut marker = BytesMut::new();
        for w in [0, min, avg, max] {
            marker.put_u32_le(w);
        }
        let mut bare = BytesMut::new();
        bare.put_u32_le(fixed_size);
        for frame in [marker, bare] {
            prop_assert!(matches!(
                ChunkingParams::decode(&mut frame.freeze()),
                Err(drivolution::core::DrvError::Codec(_))
            ));
        }
    }

    #[test]
    fn cdc_manifests_verify_and_reassemble_after_edits(
        seed in any::<u64>(),
        pos_seed in any::<u32>(),
        ins_len in 0usize..200,
    ) {
        // End-to-end invariant: whatever the edit, the edited image's
        // CDC manifest verifies against its own bytes and assembles from
        // its own chunk split.
        let v1 = image(16 * 1024, seed);
        let at = pos_seed as usize % v1.len();
        let mut v2 = v1.clone();
        v2.splice(at..at, image(ins_len, seed ^ 0xAAAA));
        let v2 = bytes::Bytes::from(v2);

        let params = ChunkingParams::cdc(256, 1024, 4096);
        let m = ChunkManifest::of_with(&v2, &params);
        prop_assert!(m.verify(&v2).is_ok());
        let map: std::collections::HashMap<u64, bytes::Bytes> = m
            .chunks
            .iter()
            .copied()
            .zip(drivolution::core::chunk::split_with(&v2, &params))
            .collect();
        let rebuilt = drivolution::core::chunk::assemble(&m, &map).unwrap();
        prop_assert_eq!(rebuilt, v2);
    }
}

/// The single-chain scan every build up to PR 20 shipped, kept here as
/// `core::transfer` keeps its byte-wise keystream: one Gear hash rolled
/// byte by byte from each chunk's start. `cut_points` rolls several
/// chains side by side and must cut at exactly these offsets.
mod single_chain {
    /// `core::chunk`'s table (its checksum is pinned by
    /// `gear_table_is_stable`).
    fn gear() -> [u64; 256] {
        fn splitmix64(x: u64) -> u64 {
            let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        std::array::from_fn(|i| splitmix64(splitmix64(i as u64)))
    }

    pub(crate) fn cut_points(bytes: &[u8], min: u32, avg: u32, max: u32, norm: u8) -> Vec<usize> {
        let gear = gear();
        let (min, avg, max) = (min as usize, avg as usize, max as usize);
        let bits = usize::BITS - 1 - avg.max(2).leading_zeros();
        let mask = |bits: u32| (1u64 << bits) - 1;
        let hard = mask((bits + u32::from(norm)).min(62));
        let easy = mask(bits.saturating_sub(u32::from(norm)).max(1));
        let len = bytes.len();
        let mut cuts = Vec::new();
        let mut start = 0;
        while start < len {
            let hard_end = (start + max).min(len);
            let avg_point = (start + avg).min(len);
            // Level 0 hashes from the chunk start and tests from `min`
            // on; the normalized levels never hash the first `min` bytes.
            let (hash_from, test_from) = if norm == 0 {
                (start, start + min)
            } else {
                (start + min, 0)
            };
            let mut h = 0u64;
            let mut cut = hard_end;
            for i in hash_from..hard_end {
                h = (h << 1).wrapping_add(gear[bytes[i] as usize]);
                let mask = match norm {
                    0 => mask(bits),
                    _ if i < avg_point => hard,
                    _ => easy,
                };
                if i + 1 >= test_from && h & mask == 0 {
                    cut = i + 1;
                    break;
                }
            }
            cuts.push(cut);
            start = cut;
        }
        cuts
    }
}

/// Inputs the lanes could get wrong in different ways: entropy (cuts
/// anywhere), one repeated byte (every lane sees the same hash),
/// a one-bit alphabet and a short period (hits cluster, so the earliest
/// is rarely the first lane's), each at a length below the lane
/// threshold, around it, and far above.
fn lane_inputs() -> Vec<Vec<u8>> {
    let mut inputs = Vec::new();
    for len in [0, 1, 63, 200, 1_000, 4_097, 70_000, 300_001] {
        inputs.push(image(len, len as u64));
        inputs.push(vec![0; len]);
        inputs.push(image(len, 77).iter().map(|b| b & 1).collect());
        inputs.push((0..len).map(|i| (i % 251) as u8).collect());
    }
    inputs
}

#[test]
fn cuts_equal_the_single_chain_reference() {
    // Levels 0, 1, 2 and 8; `min` below the mask width (a lane's warm-up
    // must not reach back past where the chain was reset); averages small
    // enough that regions fall under the lane threshold and large enough
    // that the hard mask clamps.
    let params = [
        (1024, 4096, 16384, 0),
        (1024, 4096, 16384, 1),
        (1024, 4096, 16384, 2),
        (1024, 4096, 16384, 8),
        (1, 256, 1024, 0),
        (1, 256, 1024, 2),
        (7, 300, 5000, 3),
        (64, 256, 4096, 2),
        (64, 64, 64, 1),
        (2048, 8192, 65536, 2),
        (1000, 1 << 20, 1 << 21, 8),
    ];
    for input in lane_inputs() {
        for (min, avg, max, norm) in params {
            assert_eq!(
                cut_points(&input, &ChunkingParams::cdc_normalized(min, avg, max, norm)),
                single_chain::cut_points(&input, min, avg, max, norm),
                "len {} first bytes {:?} under cdc/{min}-{avg}-{max}/n{norm}",
                input.len(),
                input.get(..4),
            );
        }
    }
}

#[test]
fn default_cut_lists_are_the_ones_recorded_at_the_parent() {
    // Recorded at PR 20, before the scan rolled lanes: (seed, chunk
    // count, fnv1a64 of the cut offsets as little-endian u64s) of
    // `entropy_blob(1 << 20, seed)`. Boundaries are a persisted format.
    for (seed, count, golden) in [
        (1, 230, 0x0af1_299c_8ad5_c3e2u64),
        (2, 229, 0x1029_462f_c335_3c56),
        (3, 226, 0x97f1_322c_8419_d2b0),
    ] {
        let cuts = cut_points(&image(1 << 20, seed), &ChunkingParams::default());
        let bytes: Vec<u8> = cuts
            .iter()
            .flat_map(|c| (*c as u64).to_le_bytes())
            .collect();
        assert_eq!(cuts.len(), count, "seed {seed}");
        assert_eq!(
            drivolution::core::fnv1a64(&bytes),
            golden,
            "seed {seed}: cut list moved"
        );
    }
}
