//! The client-side persistent driver depot.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use drivolution_core::chunk::{ChunkManifest, ChunkingParams};
use drivolution_core::proto::{HaveSummary, MAX_HAVE_IMAGES};
use drivolution_core::{fnv1a64, Digested, DrvError, DrvResult};

use crate::index::ContentIndex;

/// Percent-encodes control characters (and `%` itself) in a depot key so
/// a database name can never corrupt the line-oriented `latest.idx`
/// format. Everything else passes through untouched.
fn escape_key(key: &str) -> String {
    let mut out = String::with_capacity(key.len());
    for c in key.chars() {
        if c < '\u{20}' || c == '\u{7f}' || c == '%' {
            out.push('%');
            out.push_str(&format!("{:02X}", c as u32));
        } else {
            out.push(c);
        }
    }
    out
}

/// Inverse of [`escape_key`]. Returns `None` on malformed escapes (a
/// hand-edited or corrupted index line).
fn unescape_key(key: &str) -> Option<String> {
    let bytes = key.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let hex = std::str::from_utf8(hex).ok()?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// Writes `contents` to `path` via a sibling tmp file and an atomic
/// rename, so a crash mid-write can never leave a truncated file under
/// the real name. The tmp name is unique per process and call — shared
/// depots persist concurrently outside the lock, and two writers racing
/// on one tmp file would reintroduce exactly the torn write this
/// function exists to prevent.
fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    // drvlint: allow(global-state) — tmp names must differ across every depot of the process that shares a directory; the name never reaches a frame or a count
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = match (path.parent(), path.file_name().and_then(|n| n.to_str())) {
        (Some(dir), Some(name)) => dir.join(format!(".{name}.{}.{seq}.tmp", std::process::id())),
        _ => return Err(std::io::Error::other("unrepresentable path")),
    };
    let r = fs::File::create(&tmp)
        .and_then(|mut f| f.write_all(contents))
        .and_then(|_| fs::rename(&tmp, path));
    if r.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    r
}

/// The depot's `meta` file: one `chunking` line, one shape per variant
/// (`DESIGN.md` §2).
fn encode_meta(params: &ChunkingParams) -> String {
    match *params {
        ChunkingParams::Fixed { size } => format!("chunking fixed {size}\n"),
        ChunkingParams::Cdc {
            min,
            avg,
            max,
            norm,
        } => format!("chunking cdc {min} {avg} {max} {norm}\n"),
    }
}

fn decode_meta(text: &str) -> Option<ChunkingParams> {
    for line in text.lines() {
        let mut it = line.split_whitespace();
        if it.next() != Some("chunking") {
            continue;
        }
        let params = match it.next()? {
            "fixed" => ChunkingParams::fixed(it.next()?.parse().ok()?),
            "cdc" => ChunkingParams::cdc_normalized(
                it.next()?.parse().ok()?,
                it.next()?.parse().ok()?,
                it.next()?.parse().ok()?,
                it.next()?.parse().ok()?,
            ),
            _ => return None,
        };
        return params.validate().ok().map(|_| params);
    }
    None
}

/// A client-side content-addressed cache of driver images.
///
/// The bootloader consults the depot before issuing a
/// `DRIVOLUTION_REQUEST` (attaching a [`HaveSummary`]), resolves
/// zero-transfer revalidation offers from it, and assembles chunked
/// deltas against it. Optionally persistent: with a directory configured,
/// every image survives process restarts, so even a cold process starts
/// with a warm depot. The chunking params are persisted alongside the
/// images (a `meta` file), so a reopened depot keeps summarizing with the
/// params its cached delta bases were indexed under.
pub struct DriverDepot {
    index: ContentIndex,
    /// database name → content digest of the image last used for it.
    latest: Mutex<BTreeMap<String, u64>>,
    params: ChunkingParams,
    dir: Option<PathBuf>,
}

impl std::fmt::Debug for DriverDepot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriverDepot")
            .field("images", &self.index.image_count())
            .field("chunks_cut", &self.index.chunks_cut())
            .field("chunking", &self.params)
            .field("persistent", &self.dir.is_some())
            .finish()
    }
}

impl DriverDepot {
    /// Creates a memory-only depot with the default (content-defined)
    /// chunking.
    pub fn in_memory() -> Arc<Self> {
        Self::with_params(ChunkingParams::default())
    }

    /// Creates a memory-only depot with explicit chunking params.
    ///
    /// # Panics
    ///
    /// Panics when `params` is structurally invalid.
    pub fn with_params(params: ChunkingParams) -> Arc<Self> {
        // A constructor argument, never decoded input (`decode_meta` drops
        // an invalid line).
        params.validate().expect("invalid chunking params");
        Arc::new(DriverDepot {
            index: ContentIndex::new(),
            latest: Mutex::new(BTreeMap::new()),
            params,
            dir: None,
        })
    }

    /// Opens (or creates) a persistent depot rooted at `dir`, loading any
    /// previously stored images. The chunking params recorded in the
    /// depot's `meta` file are restored, so a fleet configured with
    /// non-default params keeps its delta bases across restarts; a fresh
    /// directory gets the default (content-defined) chunking.
    ///
    /// # Errors
    ///
    /// [`DrvError::Internal`] on filesystem failures.
    pub fn persistent(dir: impl Into<PathBuf>) -> DrvResult<Arc<Self>> {
        let dir = dir.into();
        let params = fs::read_to_string(dir.join("meta"))
            .ok()
            .and_then(|t| decode_meta(&t))
            .unwrap_or_default();
        fs::create_dir_all(dir.join("images"))
            .map_err(|e| DrvError::Internal(format!("depot dir: {e}")))?;
        write_atomic(&dir.join("meta"), encode_meta(&params).as_bytes())
            .map_err(|e| DrvError::Internal(format!("depot meta: {e}")))?;
        let depot = DriverDepot {
            index: ContentIndex::new(),
            latest: Mutex::new(BTreeMap::new()),
            params,
            dir: Some(dir.clone()),
        };
        // Load images; entries whose bytes no longer match their
        // digest-derived name are discarded (corrupted at rest).
        let entries = fs::read_dir(dir.join("images"))
            .map_err(|e| DrvError::Internal(format!("depot scan: {e}")))?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".img")) else {
                continue;
            };
            let Ok(expected) = u64::from_str_radix(stem, 16) else {
                continue;
            };
            let Ok(bytes) = fs::read(entry.path()) else {
                continue;
            };
            let image = Digested::of(Bytes::from(bytes));
            if image.digest() != expected {
                let _ = fs::remove_file(entry.path());
                continue;
            }
            depot.index.insert_digested(image, &depot.params);
        }
        // Load the database → digest map, keeping only entries whose
        // image actually loaded and whose key unescapes cleanly.
        if let Ok(text) = fs::read_to_string(dir.join("latest.idx")) {
            let mut latest = depot.latest.lock();
            for line in text.lines() {
                if let Some((digest, db)) = line.split_once(' ') {
                    if let (Ok(d), Some(db)) = (u64::from_str_radix(digest, 16), unescape_key(db)) {
                        if depot.index.contains_image(d) {
                            latest.insert(db, d);
                        }
                    }
                }
            }
        }
        Ok(Arc::new(depot))
    }

    /// The chunking params this depot summarizes and assembles with.
    pub fn params(&self) -> ChunkingParams {
        self.params
    }

    /// Number of cached images.
    pub fn image_count(&self) -> usize {
        self.index.image_count()
    }

    /// Inserts a full image for `database`, returning its content digest.
    pub fn insert(&self, database: &str, bytes: Bytes) -> u64 {
        self.insert_digested(database, Digested::of(bytes))
    }

    /// [`insert`](Self::insert) of an image that is already hashed.
    pub fn insert_digested(&self, database: &str, image: Digested) -> u64 {
        let digest = self.index.insert_digested(image.clone(), &self.params);
        self.latest.lock().insert(database.to_string(), digest);
        self.persist(digest, image.bytes());
        digest
    }

    /// Full image bytes by content digest.
    pub fn lookup(&self, digest: u64) -> Option<Bytes> {
        self.index.image(digest)
    }

    /// Chunk bytes by chunk digest — a refcounted handle onto the
    /// indexed allocation.
    pub fn chunk(&self, digest: u64) -> Option<Bytes> {
        self.index.chunk(digest)
    }

    /// Records a zero-transfer revalidation hit: `digest` becomes the
    /// image last used for `database`.
    pub fn note_revalidation(&self, database: &str, digest: u64) {
        self.latest.lock().insert(database.to_string(), digest);
    }

    /// Builds the `HAVE` summary for a request about `database`: the
    /// cached image digests, led by the image last used for this
    /// database (the natural delta base for an upgrade) when this depot
    /// still holds it.
    pub fn have_summary(&self, database: &str) -> Option<HaveSummary> {
        let mut images = self.index.image_digests();
        if images.is_empty() {
            return None;
        }
        let latest = self.latest.lock().get(database).copied();
        // `images` is sorted: rotating the base to the front keeps the
        // rest in order, and the cap then never cuts the base off.
        let at = latest.and_then(|d| images.binary_search(&d).ok());
        if let Some(head) = at.and_then(|i| images.get_mut(..=i)) {
            head.rotate_right(1);
        }
        images.truncate(MAX_HAVE_IMAGES);
        Some(HaveSummary {
            images,
            params: self.params,
            base: at.and(latest),
        })
    }

    /// Splits `manifest.chunks` into (locally available, must fetch).
    pub fn partition_chunks(&self, manifest: &ChunkManifest) -> (Vec<u64>, Vec<u64>) {
        let mut have = Vec::new();
        let mut need = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for d in &manifest.chunks {
            if !seen.insert(*d) {
                continue;
            }
            if self.index.chunk(*d).is_some() {
                have.push(*d);
            } else {
                need.push(*d);
            }
        }
        (have, need)
    }

    /// Assembles a full image from the manifest, local chunks, and
    /// freshly `fetched` chunks. The result is *not* stored — callers
    /// [`insert_digested`](Self::insert_digested) it once any further
    /// checks (e.g. code signatures) have passed, so unverifiable images
    /// never enter the cache.
    ///
    /// Verification is two-level, sized to what is actually untrusted:
    /// each *fetched* chunk is digest-checked (the network supplied it),
    /// locally reused chunks are not (the content index only stores
    /// digest-verified bytes), and one whole-image digest seals ordering,
    /// count, and content. A boundary re-scan of the assembled bytes
    /// would re-prove what the image digest already proves — at 10k
    /// clients per rollout wave that redundant per-byte pass dominated
    /// upgrade wall time.
    ///
    /// # Errors
    ///
    /// [`DrvError::BadPackage`] when chunks are missing or verification
    /// fails.
    pub fn assemble(
        &self,
        manifest: &ChunkManifest,
        fetched: &HashMap<u64, Bytes>,
    ) -> DrvResult<Bytes> {
        Ok(self.assemble_digested(manifest, fetched)?.bytes().clone())
    }

    /// [`assemble`](Self::assemble), keeping the whole-image digest it
    /// verified with the bytes. Same errors.
    pub fn assemble_digested(
        &self,
        manifest: &ChunkManifest,
        fetched: &HashMap<u64, Bytes>,
    ) -> DrvResult<Digested> {
        let mut parts = Vec::with_capacity(manifest.chunks.len());
        let mut seen = std::collections::HashSet::new();
        for (i, d) in manifest.chunks.iter().enumerate() {
            if let Some(chunk) = fetched.get(d) {
                if seen.insert(*d) && fnv1a64(chunk) != *d {
                    return Err(DrvError::BadPackage(format!(
                        "chunk {i} ({d:016x}) digest mismatch"
                    )));
                }
                parts.push(chunk.clone());
            } else if let Some(chunk) = self.index.chunk(*d) {
                parts.push(chunk);
            } else {
                return Err(DrvError::BadPackage(format!(
                    "chunk {i} ({d:016x}) unavailable for assembly"
                )));
            }
        }
        let image = Digested::of(Bytes::from(manifest.join(&parts)?));
        if image.digest() != manifest.content_digest {
            return Err(DrvError::BadPackage(
                "assembled image digest does not match manifest".into(),
            ));
        }
        Ok(image)
    }

    fn persist(&self, digest: u64, bytes: &Bytes) {
        let Some(dir) = &self.dir else { return };
        let path = dir.join("images").join(format!("{digest:016x}.img"));
        if !path.exists() {
            // Write-then-rename so a crashed write never leaves a
            // corrupt-but-plausible entry.
            let _ = write_atomic(&path, bytes);
        }
        // Snapshot under the lock, write after dropping it: shared depots
        // must not stall `have_summary` behind filesystem I/O.
        let entries: Vec<(String, u64)> = {
            let latest = self.latest.lock();
            latest.iter().map(|(db, d)| (db.clone(), *d)).collect()
        };
        let mut out = String::new();
        for (db, d) in entries {
            out.push_str(&format!("{d:016x} {}\n", escape_key(&db)));
        }
        // Same tmp+rename discipline as the images: a crash mid-write
        // must never leave a truncated index behind the real name.
        let _ = write_atomic(&dir.join("latest.idx"), out.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drivolution_core::MAX_IMAGE_BYTES;

    fn image(len: usize, seed: u8) -> Bytes {
        Bytes::from(drivolution_core::entropy_blob(len, seed as u64))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("drv-depot-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn insert_lookup_and_have_summary() {
        let depot = DriverDepot::with_params(ChunkingParams::fixed(1024));
        let img = image(10_000, 1);
        let d = depot.insert("orders", img.clone());
        assert_eq!(depot.lookup(d), Some(img));
        let have = depot.have_summary("orders").unwrap();
        assert_eq!(have.images, vec![d]);
        assert_eq!(have.params, ChunkingParams::fixed(1024));
        assert_eq!(have.base, Some(d));
        assert_eq!(depot.index.manifest(d).unwrap().chunk_count(), 10);
        assert_eq!(depot.have_summary("other").unwrap().base, None);
    }

    #[test]
    fn cdc_depot_summarizes_with_its_params() {
        let depot = DriverDepot::in_memory();
        let img = image(100_000, 9);
        depot.insert("orders", img);
        let have = depot.have_summary("orders").unwrap();
        assert_eq!(have.params, ChunkingParams::default());
        assert!(have.base.is_some());
    }

    #[test]
    fn delta_assembly_reuses_local_chunks() {
        let depot = DriverDepot::with_params(ChunkingParams::fixed(1024));
        let v1 = image(8192, 2);
        depot.insert("orders", v1.clone());

        let mut v2_bytes = v1.to_vec();
        for b in &mut v2_bytes[1024..2048] {
            *b = !*b;
        }
        let v2 = Bytes::from(v2_bytes);
        let manifest = ChunkManifest::of(&v2, 1024);
        let (have, need) = depot.partition_chunks(&manifest);
        assert_eq!(have.len(), 7);
        assert_eq!(need.len(), 1);

        let fetched: HashMap<u64, Bytes> =
            need.iter().map(|d| (*d, v2.slice(1024..2048))).collect();
        let rebuilt = depot.assemble(&manifest, &fetched).unwrap();
        assert_eq!(rebuilt, v2);
        // One chunk came off the wire; the bytes of the other seven can
        // only have come from the depot.
        assert_eq!(fetched.len(), 1);
        // Assembly does not store; the caller inserts after its own
        // verification.
        assert_eq!(depot.image_count(), 1);
        depot.insert("orders", rebuilt);
        assert_eq!(depot.image_count(), 2);
    }

    #[test]
    fn assemble_rejects_wrong_chunk_bytes() {
        let depot = DriverDepot::with_params(ChunkingParams::fixed(1024));
        let v2 = image(4096, 3);
        let manifest = ChunkManifest::of(&v2, 1024);
        let mut fetched: HashMap<u64, Bytes> = manifest
            .chunks
            .iter()
            .enumerate()
            .map(|(i, d)| (*d, v2.slice(i * 1024..(i + 1) * 1024)))
            .collect();
        // Swap one chunk's bytes for garbage of the same length.
        fetched.insert(manifest.chunks[2], Bytes::from(vec![0u8; 1024]));
        assert!(depot.assemble(&manifest, &fetched).is_err());
    }

    #[test]
    fn assemble_never_sizes_its_buffer_from_the_manifest() {
        // `total_size` is a number off the wire (any forged offer carries
        // one); u64::MAX used to panic with `capacity overflow`.
        let depot = DriverDepot::with_params(ChunkingParams::fixed(1024));
        let v2 = image(4096, 3);
        let honest = ChunkManifest::of(&v2, 1024);
        depot.insert("orders", v2);
        for chunks in [Vec::new(), honest.chunks.clone()] {
            let forged = ChunkManifest {
                total_size: u64::MAX,
                chunks,
                ..honest.clone()
            };
            assert!(matches!(
                depot.assemble(&forged, &HashMap::new()),
                Err(DrvError::BadPackage(_))
            ));
        }
    }

    #[test]
    fn assemble_refuses_an_image_past_the_size_cap() {
        // One held 1 MiB chunk named once more than the cap allows: every
        // part is in hand and size and digest agree, yet nothing that big
        // may be built.
        let depot = DriverDepot::with_params(ChunkingParams::fixed(1 << 20));
        let chunk = image(1 << 20, 9);
        depot.insert("orders", chunk.clone());
        let n = (MAX_IMAGE_BYTES >> 20) as usize + 1;
        let manifest = ChunkManifest {
            content_digest: fnv1a64(&chunk.repeat(n)),
            total_size: (n as u64) << 20,
            params: ChunkingParams::fixed(1 << 20),
            chunks: vec![fnv1a64(&chunk); n],
        };
        assert!(matches!(
            depot.assemble(&manifest, &HashMap::new()),
            Err(DrvError::BadPackage(_))
        ));
    }

    #[test]
    fn persistent_depot_survives_reopen_and_discards_corruption() {
        let dir = temp_dir("persist");
        let img = image(5000, 4);
        let digest;
        {
            let depot = DriverDepot::persistent(&dir).unwrap();
            digest = depot.insert("orders", img.clone());
        }
        // Reopen: the image and the database index are back.
        {
            let depot = DriverDepot::persistent(&dir).unwrap();
            assert_eq!(depot.lookup(digest), Some(img.clone()));
            let have = depot.have_summary("orders").unwrap();
            assert!(have.images.contains(&digest));
            assert_eq!(have.base, Some(digest));
        }
        // Corrupt the stored file: it is discarded on the next open.
        let path = dir.join("images").join(format!("{digest:016x}.img"));
        let mut bytes = fs::read(&path).unwrap();
        bytes[100] ^= 0xff;
        fs::write(&path, bytes).unwrap();
        {
            let depot = DriverDepot::persistent(&dir).unwrap();
            assert_eq!(depot.lookup(digest), None);
            assert!(depot.have_summary("orders").is_none());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_depot_without_its_base_image_names_no_base() {
        let dir = temp_dir("lost-base");
        let (v1, v2);
        {
            let depot = DriverDepot::persistent(&dir).unwrap();
            v1 = depot.insert("orders", image(5000, 1));
            v2 = depot.insert("orders", image(5000, 2));
            assert_eq!(depot.have_summary("orders").unwrap().base, Some(v2));
        }
        fs::remove_file(dir.join("images").join(format!("{v2:016x}.img"))).unwrap();
        let depot = DriverDepot::persistent(&dir).unwrap();
        let have = depot.have_summary("orders").unwrap();
        assert_eq!(have.images, vec![v1]);
        assert_eq!(have.base, None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_base_leads_the_images_and_survives_the_cap() {
        let depot = DriverDepot::with_params(ChunkingParams::fixed(64));
        let blob = |seed: u64| Bytes::from(drivolution_core::entropy_blob(64, seed));
        let mut others: Vec<u64> = (0..MAX_HAVE_IMAGES as u64)
            .map(|i| depot.insert("other", blob(i)))
            .collect();
        let base = depot.insert("orders", blob(u64::MAX));
        let have = depot.have_summary("orders").unwrap();
        assert_eq!(have.base, Some(base));
        assert_eq!(have.images.len(), MAX_HAVE_IMAGES);
        assert_eq!(have.images.first(), Some(&base));
        // The rest follow sorted; the one the cap drops is the largest.
        others.sort_unstable();
        assert_eq!(have.images[1..], others[..MAX_HAVE_IMAGES - 1]);
    }

    #[test]
    fn meta_codec_roundtrips_every_variant_and_rejects_malformed_lines() {
        for params in [
            ChunkingParams::fixed(2048),
            ChunkingParams::cdc(512, 2048, 8192),
            ChunkingParams::default(),
            ChunkingParams::cdc_normalized(512, 2048, 8192, 3),
        ] {
            assert_eq!(decode_meta(&encode_meta(&params)), Some(params));
        }
        // A cdc line carries all four fields; a level out of range, an
        // unknown strategy or no `chunking` line at all read as "no
        // recorded params" (the depot then opens with the default).
        for bad in [
            "chunking cdc 512 2048 8192\n",
            "chunking cdc 512 2048 8192 99\n",
            "chunking fixed\n",
            "chunking rabin 4096\n",
            "",
        ] {
            assert_eq!(decode_meta(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn persistent_depot_restores_normalized_params_across_restarts() {
        let dir = temp_dir("persist-norm");
        let img = image(64 * 1024, 7);
        let (digest, chunks_before) = {
            let depot = DriverDepot::persistent(&dir).unwrap();
            assert_eq!(depot.params(), ChunkingParams::default());
            let digest = depot.insert("orders", img.clone());
            (digest, depot.index.manifest(digest).unwrap().chunks)
        };
        let depot = DriverDepot::persistent(&dir).unwrap();
        assert_eq!(depot.params(), ChunkingParams::default());
        let have = depot.have_summary("orders").unwrap();
        assert_eq!(have.params, ChunkingParams::default());
        assert_eq!(have.base, Some(digest));
        assert_eq!(depot.index.manifest(digest).unwrap().chunks, chunks_before);
        assert_eq!(depot.lookup(digest), Some(img));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_depot_restores_custom_chunking_params() {
        // Regression: `persistent` used to always reopen with the
        // default chunk size, so a fleet on non-default params lost
        // every cached delta base after a restart.
        let dir = temp_dir("persist-params");
        let params = ChunkingParams::cdc(512, 2048, 8192);
        let img = image(64 * 1024, 5);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("meta"), encode_meta(&params)).unwrap();
        let (digest, chunks_before) = {
            let depot = DriverDepot::persistent(&dir).unwrap();
            assert_eq!(depot.params(), params);
            let digest = depot.insert("orders", img.clone());
            (digest, depot.index.manifest(digest).unwrap().chunks)
        };
        // A reopen restores the params from `meta`, and the base's chunk
        // digests are bit-identical, so the server keeps seeing a usable
        // delta base.
        let depot = DriverDepot::persistent(&dir).unwrap();
        assert_eq!(depot.params(), params);
        let have = depot.have_summary("orders").unwrap();
        assert_eq!(have.params, params);
        assert_eq!(have.base, Some(digest));
        assert_eq!(depot.index.manifest(digest).unwrap().chunks, chunks_before);
        assert_eq!(depot.lookup(digest), Some(img));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_idx_written_atomically_and_tolerates_truncation() {
        let dir = temp_dir("atomic-idx");
        {
            let depot = DriverDepot::persistent(&dir).unwrap();
            depot.insert("orders", image(4096, 7));
            depot.insert("billing", image(4096, 8));
        }
        // No tmp residue after a clean write.
        let residue = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .count();
        assert_eq!(residue, 0, "tmp residue left behind");
        let text = fs::read_to_string(dir.join("latest.idx")).unwrap();
        assert_eq!(text.lines().count(), 2);

        // Crash sim: a torn write that truncated the index mid-line (the
        // failure mode of the old bare `fs::write`) plus leftover tmp
        // residue. Reopen must survive: images reload, the intact line
        // parses, the torn line is skipped.
        // Cut into the last line's digest field so the torn line cannot
        // parse as anything.
        let cut = text.len() - "rders\n".len() - 12;
        fs::write(dir.join("latest.idx"), &text.as_bytes()[..cut]).unwrap();
        fs::write(dir.join(".latest.idx.tmp"), b"garbage").unwrap();
        let depot = DriverDepot::persistent(&dir).unwrap();
        assert_eq!(depot.image_count(), 2);
        let summaries = ["orders", "billing"]
            .iter()
            .filter(|db| {
                depot
                    .have_summary(db)
                    .map(|h| h.base.is_some())
                    .unwrap_or(false)
            })
            .count();
        assert_eq!(summaries, 1, "exactly the intact line should survive");
        // The next insert rewrites a complete index.
        depot.insert("orders", image(4096, 7));
        let text = fs::read_to_string(dir.join("latest.idx")).unwrap();
        assert_eq!(text.lines().count(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn control_characters_in_database_names_round_trip() {
        // Regression: a database name containing '\n' used to corrupt
        // the line format on write and be misparsed on reload.
        let dir = temp_dir("ctrl-keys");
        let evil = "orders\nfffffffffffffffff bogus";
        let tab = "tab\tdb";
        let (d_evil, d_tab, d_plain);
        {
            let depot = DriverDepot::persistent(&dir).unwrap();
            d_evil = depot.insert(evil, image(4096, 1));
            d_tab = depot.insert(tab, image(4096, 2));
            d_plain = depot.insert("plain db", image(4096, 3));
        }
        let text = fs::read_to_string(dir.join("latest.idx")).unwrap();
        assert_eq!(text.lines().count(), 3, "one line per key: {text:?}");
        let depot = DriverDepot::persistent(&dir).unwrap();
        for (db, d) in [(evil, d_evil), (tab, d_tab), ("plain db", d_plain)] {
            let have = depot.have_summary(db).unwrap();
            assert!(have.images.contains(&d));
            assert_eq!(have.base, Some(d), "latest mapping lost for {db:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_escaping_round_trips() {
        for key in [
            "plain",
            "with space",
            "per%cent",
            "nl\n",
            "\r\t\x7f",
            "café-数据库",
            "",
        ] {
            let esc = escape_key(key);
            assert!(!esc.contains('\n') && !esc.contains('\r'));
            assert_eq!(unescape_key(&esc).as_deref(), Some(key));
        }
        assert_eq!(unescape_key("bad%zz"), None);
        assert_eq!(unescape_key("trunc%0"), None);
    }
}
