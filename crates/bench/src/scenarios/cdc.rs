//! Content-defined vs fixed-size chunking under size-shifting edits.
//!
//! Fixed-size chunking shares chunks between driver versions only while
//! byte offsets line up: one inserted byte shifts everything after the
//! edit point and a "delta" upgrade degenerates into a near-full
//! transfer. This scenario measures the delta bytes a fleet client would
//! fetch for three canonical edit shapes — a chunk-aligned in-place
//! overwrite (fixed chunking's best case), a mid-image insertion, and a
//! prepended header (its worst cases) — under both chunkers, plus an
//! end-to-end wire measurement of an insertion upgrade through the
//! simulated network, and the resync cost of an insertion inside a
//! low-entropy region, where plain Gear degenerates to position-
//! dependent forced-max cuts and normalization does not.

use std::collections::HashSet;

use drivolution_core::chunk::{cut_points, delta_cost, ChunkingParams};
use drivolution_core::{entropy_blob, DriverVersion};
use drivolution_depot::DriverDepot;

use super::{poll_upgrades, props, Rig};
use crate::kit::{Gates, Object, Report, Size, SizeStats, Value};

/// Derives the v2 image from v1.
type Edit = fn(&[u8]) -> Vec<u8>;

fn aligned_overwrite(v1: &[u8]) -> Vec<u8> {
    // In-place overwrite of one 4 KiB-aligned region: no bytes shift.
    let mut v2 = v1.to_vec();
    for b in &mut v2[8192..12288] {
        *b = !*b;
    }
    v2
}

fn mid_insertion(v1: &[u8]) -> Vec<u8> {
    // A size-shifting edit in the middle: everything after it moves.
    let mut v2 = v1.to_vec();
    let at = v2.len() / 2;
    v2.splice(at..at, entropy_blob(137, 0xBEEF));
    v2
}

fn prepended_header(v1: &[u8]) -> Vec<u8> {
    // The pathological case for fixed chunking: every offset shifts.
    let mut v2 = entropy_blob(64, 0xCAFE);
    v2.extend_from_slice(v1);
    v2
}

/// End-to-end: a depot client bootstraps v1, the server installs a v2
/// whose packed archive is the v1 bytes with the version-string edit
/// plus identical padding (exactly the incremental edit a live fleet
/// sees), and the client upgrades. Returns the wire bytes that moved
/// for the upgrade.
fn e2e_insertion_upgrade_wire_bytes(image_len: usize, gates: &mut Gates) -> u64 {
    let rig = Rig::new("cdc-bench", image_len);
    let config = rig.client_config().with_depot(DriverDepot::in_memory());
    let boot = rig.client("app", config);
    boot.bootstrap(&rig.url, &props()).unwrap();
    rig.publish_upgrade(DriverVersion::new(2, 0, 10));
    let mark = rig.wire(&rig.server_addr);
    poll_upgrades(&boot, gates);
    rig.wire(&rig.server_addr) - mark
}

/// Bytes after the edit point until the two cut sequences realign
/// (`len - at` when they never do): the resync cost of an insertion.
fn resync_bytes(cuts1: &[usize], cuts2: &[usize], at: usize, ins: usize, len2: usize) -> usize {
    let shifted: HashSet<usize> = cuts1.iter().filter(|&&c| c > at).map(|c| c + ins).collect();
    // v2's cuts from the end back: the suffix also present in the
    // shifted v1 set has resynced; the first divergence bounds the cost.
    let resynced = cuts2.iter().rev().take_while(|c| shifted.contains(c));
    resynced.last().map_or(len2, |&c| c) - at
}

/// A 1 MiB image whose middle 512 KiB is a repeating 251-byte pattern
/// (prime period, so forced-max chunks never dedupe by phase), edited by
/// a 137-byte insertion in the middle of the pattern region: one row per
/// chunker, gated on what the rows exist to show.
fn low_entropy_insertion(plain: ChunkingParams, normd: ChunkingParams, r: &mut Report) {
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

    let mut rows = Vec::new();
    let mut delta_bytes = Vec::new();
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
        rows.push(row.into());
        delta_bytes.push(d.bytes);
    }
    r.set("low_entropy_insertion", Value::Array(rows));
    r.gates.require(
        delta_bytes[1] < delta_bytes[0],
        format!(
            "repeating-pattern insertion: normalized delta {} B not under plain {} B",
            delta_bytes[1], delta_bytes[0]
        ),
    );
}

/// Runs the scenario.
pub fn run(size: Size) -> Report {
    let image_len = size.pick(256 * 1024, 1024 * 1024);
    let fixed = ChunkingParams::fixed(drivolution_core::DEFAULT_CHUNK_SIZE);
    // Plain Gear (level 0) keeps the recorded `cdc_*` series comparable
    // across the whole benchmark trajectory; the normalized default is
    // recorded alongside as `ncdc_*`.
    let cdc = ChunkingParams::cdc(
        drivolution_core::DEFAULT_CDC_MIN,
        drivolution_core::DEFAULT_CDC_AVG,
        drivolution_core::DEFAULT_CDC_MAX,
    );
    let ncdc = ChunkingParams::default();
    let edits: [(&str, Edit); 3] = [
        ("aligned_overwrite", aligned_overwrite),
        ("mid_insertion", mid_insertion),
        ("prepended_header", prepended_header),
    ];

    let mut r = Report::new("cdc");
    r.set("image_bytes", image_len);
    r.set("fixed_params", fixed.to_string());
    r.set("cdc_params", cdc.to_string());
    r.set("ncdc_params", ncdc.to_string());

    let v1 = entropy_blob(image_len, 1);
    let mut rows = Vec::new();
    for (edit, apply) in edits {
        let v2 = apply(&v1);
        let f = delta_cost(&v1, &v2, &fixed);
        let c = delta_cost(&v1, &v2, &cdc);
        let n = delta_cost(&v1, &v2, &ncdc);
        // Chunk-size distribution per edit, so normalization's tightening
        // shows up in the trajectory, not just in delta bytes.
        let cdc_sizes = SizeStats::of_cuts(&cut_points(&v2, &cdc));
        let ncdc_sizes = SizeStats::of_cuts(&cut_points(&v2, &ncdc));

        // A size-shifting edit must cost CDC less than 10% of what it
        // costs the fixed chunker, under both dialects.
        if edit != "aligned_overwrite" {
            for (dialect, bytes) in [("plain", c.bytes), ("normalized", n.bytes)] {
                let ratio = bytes as f64 / f.bytes.max(1) as f64;
                r.gates.require(
                    ratio < 0.10,
                    format!(
                        "{edit} {dialect} CDC delta is {:.1}% of fixed (limit 10%)",
                        ratio * 100.0
                    ),
                );
            }
        }
        r.gates.require(
            ncdc_sizes.stddev < cdc_sizes.stddev,
            format!(
                "{edit} normalized chunk-size stddev {:.1} not under plain {:.1}",
                ncdc_sizes.stddev, cdc_sizes.stddev
            ),
        );
        let row = Object::default()
            .with("edit", edit)
            .with("fixed_delta_bytes", f.bytes)
            .with("fixed_missing_chunks", f.missing_chunks)
            .with("cdc_delta_bytes", c.bytes)
            .with("cdc_missing_chunks", c.missing_chunks)
            .with("cdc_total_chunks", c.total_chunks)
            .with("ncdc_delta_bytes", n.bytes)
            .with("ncdc_missing_chunks", n.missing_chunks)
            .with("ncdc_total_chunks", n.total_chunks)
            .with("cdc_chunk_sizes", &cdc_sizes)
            .with("ncdc_chunk_sizes", &ncdc_sizes);
        rows.push(row.into());
    }
    r.set("edits", Value::Array(rows));

    let e2e_wire = e2e_insertion_upgrade_wire_bytes(image_len, &mut r.gates);
    r.set("e2e_insertion_upgrade_wire_bytes", e2e_wire);
    // The e2e path must also stay a small fraction of the image.
    r.gates.require(
        (e2e_wire as f64) < image_len as f64 * 0.25,
        format!("e2e insertion upgrade moved {e2e_wire} bytes for a {image_len}-byte image"),
    );
    low_entropy_insertion(cdc, ncdc, &mut r);
    r
}
