//! Chunk+manifest pipeline: the hot path every server publish, depot
//! revalidation, and mirror read-through pays.
//!
//! Records what normalization buys in *distribution* terms: chunk-size
//! stats (min/p50/p99/max/stddev) for plain Gear vs normalized at the
//! default bounds, and the resync cost of a size-shifting edit inside a
//! low-entropy region (repeating pattern), where plain Gear degenerates
//! to position-dependent forced-max cuts.
//!
//! It also carries the one ratio gate in this crate, evaluated at
//! `Size::Full` only (a debug-profile smoke test cannot carry it): the
//! current single-pass pipeline ([`ChunkManifest::of_with`] under the
//! default params — FastCDC-style normalized cuts fused with the
//! word-folded FNV digest) must stay at least 2× faster than the frozen
//! seed pipeline timed in the same process. The ratio is gated, not
//! recorded; `drvbench`'s `core.chunk.cut_mb_per_s` owns the absolute
//! figure.

use std::hint::black_box;
use std::time::Instant;

use drivolution_core::chunk::{cut_points, delta_cost, ChunkManifest, ChunkingParams};
use drivolution_core::{entropy_blob, DEFAULT_CDC_AVG, DEFAULT_CDC_MAX, DEFAULT_CDC_MIN};

use crate::kit::{Object, Report, Size, SizeStats, Value};

fn plain_params() -> ChunkingParams {
    ChunkingParams::cdc(DEFAULT_CDC_MIN, DEFAULT_CDC_AVG, DEFAULT_CDC_MAX)
}

// --- the seed pipeline, frozen ------------------------------------------
//
// A faithful copy of the pre-normalization implementation (byte-wise
// FNV-1a; cut-then-retraverse manifest build). Kept here, not in core:
// it exists only so the ratio gate keeps measuring the same baseline as
// the repository evolves.

fn fnv1a64_bytewise(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Seed manifest build: plain-Gear cut points (the level-0 loop in core
/// is byte-identical to the seed loop), then a second pass digesting
/// every chunk and the whole image byte-at-a-time.
fn seed_manifest(bytes: &[u8]) -> (u64, Vec<u64>) {
    let cuts = cut_points(bytes, &plain_params());
    let mut chunks = Vec::with_capacity(cuts.len());
    let mut start = 0;
    for &end in &cuts {
        chunks.push(fnv1a64_bytewise(&bytes[start..end]));
        start = end;
    }
    (fnv1a64_bytewise(bytes), chunks)
}

/// Best-of-5 seconds for three full chunk+manifest builds over `bytes`.
fn best_secs(bytes: &[u8], mut f: impl FnMut(&[u8])) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..3 {
            f(black_box(bytes));
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Bytes after the edit point until the two cut sequences realign
/// (`len - at` when they never do): the resync cost of an insertion.
fn resync_bytes(cuts1: &[usize], cuts2: &[usize], at: usize, ins: usize, len2: usize) -> usize {
    let shifted: std::collections::HashSet<usize> =
        cuts1.iter().filter(|&&c| c > at).map(|c| c + ins).collect();
    // Walk v2's cuts from the end back: the suffix present in the
    // shifted v1 set is resynced; the first divergence bounds the cost.
    let mut resync_at = len2;
    for &c in cuts2.iter().rev() {
        if c <= at || !shifted.contains(&c) {
            break;
        }
        resync_at = c;
    }
    resync_at - at
}

/// Runs the scenario.
pub fn run(size: Size) -> Report {
    let image_len = size.pick(2, 16) * 1024 * 1024;
    let plain = plain_params();
    let normd = ChunkingParams::default();
    let img = entropy_blob(image_len, 41);

    let mut r = Report::new("pipeline");
    r.set("image_bytes", image_len);
    r.set("plain_params", plain.to_string());
    r.set("normalized_params", normd.to_string());

    if size == Size::Full {
        let seed = best_secs(&img, |b| {
            black_box(seed_manifest(b));
        });
        let current = best_secs(&img, |b| {
            black_box(ChunkManifest::of_with(b, &normd));
        });
        let speedup = seed / current;
        r.gates.require(
            speedup >= 2.0,
            format!("pipeline speedup {speedup:.2}x under the claimed 2x"),
        );
    }

    let plain_stats = SizeStats::of_cuts(&cut_points(&img, &plain));
    let norm_stats = SizeStats::of_cuts(&cut_points(&img, &normd));
    r.set("chunk_sizes_plain", &plain_stats);
    r.set("chunk_sizes_normalized", &norm_stats);
    r.gates.require(
        norm_stats.stddev < plain_stats.stddev,
        format!(
            "normalized chunk-size stddev {:.1} not under plain {:.1}",
            norm_stats.stddev, plain_stats.stddev
        ),
    );

    // A 1 MiB image whose middle 512 KiB is a repeating 251-byte pattern
    // (prime period, so forced-max chunks never dedupe by phase), edited
    // by a 137-byte insertion in the middle of the pattern region.
    let low_len = 1024 * 1024;
    let mut low = entropy_blob(low_len, 21);
    let pattern = entropy_blob(251, 77);
    for i in 0..(512 * 1024) {
        low[256 * 1024 + i] = pattern[i % 251];
    }
    let at = low_len / 2;
    let mut low2 = low.clone();
    let ins = entropy_blob(137, 99);
    low2.splice(at..at, ins.iter().copied());

    let mut low_rows = Vec::new();
    for (label, params) in [("plain", plain), ("normalized", normd)] {
        let d = delta_cost(&low, &low2, &params);
        let resync = resync_bytes(
            &cut_points(&low, &params),
            &cut_points(&low2, &params),
            at,
            ins.len(),
            low2.len(),
        );
        let row = Object::default()
            .with("params", label)
            .with("delta_bytes", d.bytes)
            .with("missing_chunks", d.missing_chunks)
            .with("resync_bytes", resync);
        low_rows.push(row.into());
    }
    r.set("low_entropy_insertion", Value::Array(low_rows));
    r
}
