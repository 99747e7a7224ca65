//! The digest's values are a wire contract: chunk digests, `HAVE`
//! summaries, depot file names, MACs and seals on both ends all come
//! from `core::digest`. This file pins the values themselves (every
//! other test only compares two digests computed by the same build),
//! where the striped fold takes over from the single chain, and the
//! structural properties every verification in the workspace leans on.

use std::collections::HashSet;

use drivolution::core::transfer::{self, Certificate, ChannelTrust};
use drivolution::core::{entropy_blob, fnv1a64, fnv1a64_lanes, fnv1a64_parts, TransferMethod};

/// Bytes per block of the striped fold: an input shorter than this is
/// folded exactly as every build before the stripes folded it.
const BLOCK: usize = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// The single-chain fold every build up to PR 18 shipped, kept here as
/// the reference for inputs below one block.
fn reference_fold(mut h: u64, data: &[u8]) -> u64 {
    let mut lanes = data.chunks_exact(8);
    for lane in &mut lanes {
        h = (h ^ u64::from_le_bytes(lane.try_into().unwrap())).wrapping_mul(FNV_PRIME);
        h ^= h >> 31;
    }
    for b in lanes.remainder() {
        h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    h
}

fn reference(data: &[u8]) -> u64 {
    reference_fold(FNV_OFFSET, data)
}

fn reference_parts(parts: &[&[u8]]) -> u64 {
    parts.iter().fold(FNV_OFFSET, |h, part| {
        reference_fold(reference_fold(h, &(part.len() as u64).to_le_bytes()), part)
    })
}

/// The two-part digest the golden table pins: split a third of the way in.
fn thirds(data: &[u8]) -> u64 {
    let (a, b) = data.split_at(data.len() / 3);
    fnv1a64_parts(&[a, b])
}

/// `(length, fnv1a64, fnv1a64_parts of the thirds split)` of
/// `entropy_blob(length, 0)`, recorded from this build.
const GOLDEN: [(usize, u64, u64); 11] = [
    (0, 0xcbf2_9ce4_8422_2325, 0xcd47_f146_c341_2f7c),
    (1, 0xaf63_a54c_8601_8f17, 0x126b_b13d_c7bc_1619),
    (7, 0xfe37_d060_148f_10c1, 0x3fa7_b0ff_dec7_af05),
    (8, 0x5f5b_72bc_6fdb_2e6e, 0x012f_1e82_8762_a31b),
    (9, 0xe392_7932_1170_0899, 0x495a_5a2d_44d3_16e9),
    (BLOCK - 1, 0xbbc8_26ea_e304_b615, 0xcc0b_0044_84b4_ab32),
    (BLOCK, 0xdfa6_2f3d_7c2d_8ec9, 0xcdd0_0c3b_5da3_3bc9),
    (BLOCK + 1, 0x34f0_597a_0168_6bfc, 0x9367_47d1_3a1a_354c),
    (2 * BLOCK + 13, 0x125c_4897_d19b_bdb8, 0x30b6_6026_338c_e23e),
    (4_640, 0x1205_52dc_b095_8906, 0x24bc_2361_8149_9d16),
    (1 << 20, 0x0f81_b8b2_aba9_95d7, 0x9aed_20f0_49d7_c11f),
];

#[test]
fn golden_vectors_on_both_sides_of_every_boundary() {
    let blob = entropy_blob(1 << 20, 0);
    // Compared as one table, so a deliberate re-key prints every new row.
    let computed = GOLDEN.map(|(len, _, _)| (len, fnv1a64(&blob[..len]), thirds(&blob[..len])));
    assert_eq!(
        computed, GOLDEN,
        "digest values moved: every content-addressed store re-keys (left: this build)"
    );
}

#[test]
fn the_streaming_instances_equal_the_byte_definition() {
    // The fold is one streaming definition with three instances: bytes
    // read as they are (`fnv1a64`, `fnv1a64_parts`: the table above),
    // lanes handed over as `u64`s, and lanes rewritten in place on the
    // way — the sealed channel's one-pass keystream and MAC, reached
    // here through the envelope it writes.
    let blob = entropy_blob(1 << 20, 0);
    let cert = Certificate::issue("db1", 1);
    let mut trust = ChannelTrust::new();
    trust.pin(&cert);
    for (len, _, _) in GOLDEN {
        let whole = &blob[..len - len % 8];
        let lanes: Vec<u64> = whole
            .chunks_exact(8)
            .map(|lane| u64::from_le_bytes(lane.try_into().unwrap()))
            .collect();
        assert_eq!(fnv1a64_lanes(&lanes), fnv1a64(whole), "{len} B as lanes");

        // tag, host ("db1", length-prefixed), serial | nonce | length,
        // ciphertext | MAC over (session key, ciphertext).
        let sealed = transfer::wrap(TransferMethod::Sealed, &blob[..len], Some(&cert)).unwrap();
        let (head, rest) = sealed.split_at(1 + 4 + 3 + 8);
        assert_eq!(head[0], 2);
        let (nonce, rest) = rest.split_at(8);
        let key = fnv1a64_parts(&[b"session", &cert.fingerprint().to_le_bytes(), nonce]);
        let (ciphertext, mac) = rest[4..].split_at(len);
        let expected = fnv1a64_parts(&[&key.to_le_bytes(), ciphertext]);
        assert_eq!(mac, expected.to_le_bytes(), "{len} B sealed");
        // Unsealing folds the same lanes before it overwrites them.
        let plain = transfer::unwrap(TransferMethod::Sealed, sealed, &trust).unwrap();
        assert_eq!(plain, &blob[..len], "{len} B unsealed");
    }
}

#[test]
fn below_one_block_is_the_single_chain() {
    let blob = entropy_blob(BLOCK, 1);
    for len in 0..BLOCK {
        let data = &blob[..len];
        assert_eq!(fnv1a64(data), reference(data), "{len} bytes");
        for cut in 0..=len {
            let (a, b) = data.split_at(cut);
            assert_eq!(
                fnv1a64_parts(&[a, b]),
                reference_parts(&[a, b]),
                "{len} bytes cut at {cut}"
            );
        }
    }
    // One block is where the stripes start: the constant above is the
    // build's, not merely a lower bound on it.
    assert_ne!(fnv1a64(&blob), reference(&blob));
    assert_ne!(fnv1a64_parts(&[&blob]), reference_parts(&[&blob]));
}

#[test]
fn every_single_bit_flip_changes_the_digest() {
    let blob = entropy_blob(3 * BLOCK + 7, 2);
    for len in 0..=blob.len() {
        let mut data = blob[..len].to_vec();
        let flat = fnv1a64(&data);
        let parts = thirds(&data);
        for bit in 0..len * 8 {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(fnv1a64(&data), flat, "{len} bytes, bit {bit}");
            assert_ne!(thirds(&data), parts, "{len} bytes, bit {bit} (parts)");
            data[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

#[test]
fn order_and_length_are_part_of_the_digest() {
    let data = entropy_blob(3 * BLOCK + 7, 3);
    let digest = fnv1a64(&data);

    // Two lanes of one block change places: two stripe states change.
    for block in 0..3 {
        for (a, b) in [(0, 1), (0, 7), (3, 4)] {
            let mut swapped = data.clone();
            let (a, b) = (block * BLOCK + a * 8, block * BLOCK + b * 8);
            for i in 0..8 {
                swapped.swap(a + i, b + i);
            }
            assert_ne!(fnv1a64(&swapped), digest, "lanes at {a} and {b}");
        }
    }
    // Two blocks change places: every lane stays in its stripe.
    for (a, b) in [(0, 1), (0, 2), (1, 2)] {
        let mut swapped = data.clone();
        for i in 0..BLOCK {
            swapped.swap(a * BLOCK + i, b * BLOCK + i);
        }
        assert_ne!(fnv1a64(&swapped), digest, "blocks {a} and {b}");
    }
    // Zero padding of every granularity, from every alignment.
    for len in [
        0,
        5,
        8,
        BLOCK - 8,
        BLOCK,
        2 * BLOCK,
        2 * BLOCK + 8,
        data.len(),
    ] {
        for zeros in [1, 8, BLOCK] {
            let mut padded = data[..len].to_vec();
            padded.resize(len + zeros, 0);
            assert_ne!(
                fnv1a64(&padded),
                fnv1a64(&data[..len]),
                "{len} bytes + {zeros} zeros"
            );
            assert_ne!(
                fnv1a64_parts(&[&padded]),
                fnv1a64_parts(&[&data[..len]]),
                "{len} bytes + {zeros} zeros (parts)"
            );
        }
    }
}

#[test]
fn parts_stay_unambiguous_across_a_block_edge() {
    let data = entropy_blob(2 * BLOCK + 13, 4);
    let empty: &[u8] = &[];
    let mut seen = HashSet::new();
    assert!(seen.insert(fnv1a64(&data)));
    assert!(seen.insert(fnv1a64_parts(&[&data])));
    // Every split point — inside the first block, on its edge, one past
    // it, inside the lane and byte tails — is its own digest, in either
    // order of the two parts, and three parts are not two.
    for cut in 0..=data.len() {
        let (a, b) = data.split_at(cut);
        assert!(seen.insert(fnv1a64_parts(&[a, b])), "cut {cut}");
        assert!(
            seen.insert(fnv1a64_parts(&[a, b, empty])),
            "cut {cut} + empty"
        );
        if cut != 0 && cut != data.len() {
            assert!(
                seen.insert(fnv1a64_parts(&[empty, a, b])),
                "empty + cut {cut}"
            );
        }
    }
}
