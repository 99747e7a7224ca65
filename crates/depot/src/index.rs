//! The content-addressed index shared by server, mirror, and client
//! depots.

use std::collections::{BTreeMap, HashMap, HashSet};

use bytes::Bytes;
use parking_lot::Mutex;

use drivolution_core::chunk::{manifest_and_chunks_of, ChunkManifest, ChunkingParams};
use drivolution_core::{fnv1a64, fnv1a64_lanes, Digested};

/// A content-addressed store of driver images and their chunks.
///
/// Images are keyed by the digest of their complete bytes; chunks by the
/// digest of the chunk bytes. Inserting an image records it with its
/// insert-time [`ChunkingParams`] and cuts nothing: the first chunk read
/// ([`chunk`](Self::chunk), [`chunk_count`](Self::chunk_count),
/// [`chunk_digests`](Self::chunk_digests)) cuts every image not yet
/// indexed under its own params, then answers, and a manifest request
/// cuts the image it names. A depot that never serves or takes a delta
/// never pays the boundary scan; one that does sees exactly the chunks
/// an eager insert would have indexed. Because
/// chunk boundaries are a pure function of `(bytes, params)`, the index
/// can additionally derive and serve a manifest of any held image under
/// *foreign* params (a client that chunks differently): see
/// [`manifest_for`](Self::manifest_for).
#[derive(Debug, Default)]
pub struct ContentIndex {
    state: Mutex<IndexState>,
}

#[derive(Debug, Default)]
struct IndexState {
    /// Each image with the digest it is keyed by, so deriving another
    /// chunking of it never hashes it again.
    images: BTreeMap<u64, (Digested, ChunkingParams)>,
    manifests: HashMap<(u64, ChunkingParams), ChunkManifest>,
    /// Distinct params manifests have been derived under. Bounded by
    /// [`MAX_DERIVED_PARAMS`]: params are client-supplied over the wire,
    /// and an unbounded set would let one client grow the manifest and
    /// chunk maps (and burn a re-chunk per request) without limit.
    derived_params: HashSet<ChunkingParams>,
    chunks: BTreeMap<u64, Bytes>,
    /// Images inserted since the last [`settle`](Self::settle), whose
    /// chunks under their insert-time params are not cut yet.
    unindexed: Vec<u64>,
    /// Memoized delta plans keyed by (target digest, digest of the
    /// client's chunk set, params). A fleet wave of clients upgrading
    /// from the same prior version names the same `HAVE` base, whose
    /// chunk list is derived once, so the whole wave shares one plan
    /// computation.
    plans: HashMap<(u64, u64, ChunkingParams), DeltaPlan>,
}

/// Cap on distinct chunking params an index derives manifests for. Real
/// fleets use one or two (the server's own plus perhaps one client
/// generation configured differently); beyond the cap, foreign params
/// fall back to a full-file transfer instead of growing server state.
const MAX_DERIVED_PARAMS: usize = 8;

/// Cap on memoized delta plans. Like [`MAX_DERIVED_PARAMS`], the key is
/// client-influenced (the chunk set passed in), so a caller cycling
/// fabricated sets must not grow server state without bound. Past
/// the cap, new plans are computed per request but not stored — the
/// attacker burns only its own round-trips.
const MAX_DELTA_PLANS: usize = 64;

/// A memoized chunked-delta plan: the manifest of the target image under
/// the client's params, and the chunk digests a client holding the keyed
/// `HAVE` set still needs.
#[derive(Clone, Debug)]
pub struct DeltaPlan {
    /// Manifest of the target image under the requesting params.
    pub manifest: ChunkManifest,
    /// Digests the client must fetch.
    pub missing: Vec<u64>,
}

impl IndexState {
    /// Indexes `manifest` of the image at `digest` and the chunk slices
    /// not yet held.
    fn add(&mut self, digest: u64, manifest: ChunkManifest, pairs: Vec<(u64, Bytes)>) {
        for (d, part) in pairs {
            self.chunks.entry(d).or_insert(part);
        }
        self.derived_params.insert(manifest.params);
        self.manifests.insert((digest, manifest.params), manifest);
    }

    /// Records `image` under `params` without cutting it. The params are
    /// charged to the derived-params budget here, so the budget counts an
    /// image's own params whether or not it is ever cut.
    fn insert_digested(&mut self, image: Digested, params: &ChunkingParams) -> u64 {
        let digest = image.digest();
        if !self.images.contains_key(&digest) {
            self.derived_params.insert(*params);
            self.images.insert(digest, (image, *params));
            self.unindexed.push(digest);
        }
        digest
    }

    /// Cuts every image not yet indexed under its insert-time params:
    /// one boundary scan of the bytes the index holds yields both the
    /// manifest and the chunk slices. Every chunk-level read calls this
    /// first, so no read can tell a lazy insert from an eager one.
    fn settle(&mut self) {
        for digest in std::mem::take(&mut self.unindexed) {
            let Some((image, params)) = self.images.get(&digest).cloned() else {
                continue;
            };
            if !self.manifests.contains_key(&(digest, params)) {
                let (manifest, pairs) = manifest_and_chunks_of(&image, &params);
                self.add(digest, manifest, pairs);
            }
        }
    }

    fn manifest_for(&mut self, digest: u64, params: &ChunkingParams) -> Option<ChunkManifest> {
        if let Some(m) = self.manifests.get(&(digest, *params)) {
            return Some(m.clone());
        }
        // Resolve the image before charging the params budget, so
        // unknown digests cannot burn slots.
        let image = self.images.get(&digest).map(|(i, _)| i.clone())?;
        let fresh = !self.derived_params.contains(params);
        if fresh && self.derived_params.len() >= MAX_DERIVED_PARAMS {
            return None;
        }
        let (manifest, pairs) = manifest_and_chunks_of(&image, params);
        self.add(digest, manifest.clone(), pairs);
        Some(manifest)
    }
}

impl ContentIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        ContentIndex::default()
    }

    /// Indexes `bytes` under `params`, returning its content digest.
    /// Re-inserting identical content is a no-op (the first insert's
    /// params stick; other chunkings are derived on demand).
    pub fn insert(&self, bytes: Bytes, params: &ChunkingParams) -> u64 {
        self.insert_digested(Digested::of(bytes), params)
    }

    /// [`insert`](Self::insert) of an image that is already hashed.
    pub fn insert_digested(&self, image: Digested, params: &ChunkingParams) -> u64 {
        self.state.lock().insert_digested(image, params)
    }

    /// Full image bytes by content digest.
    pub fn image(&self, digest: u64) -> Option<Bytes> {
        let st = self.state.lock();
        st.images
            .get(&digest)
            .map(|(image, _)| image.bytes().clone())
    }

    /// Manifest of an indexed image under its insert-time params.
    pub fn manifest(&self, digest: u64) -> Option<ChunkManifest> {
        let mut st = self.state.lock();
        let params = st.images.get(&digest).map(|(_, p)| *p)?;
        st.manifest_for(digest, &params)
    }

    /// Manifest of an indexed image under arbitrary `params`, deriving
    /// (and chunk-indexing) it on first use. This is how a server serves
    /// a delta to a client whose depot chunks with different params than
    /// its own: the boundaries are recomputed under the client's params,
    /// and the resulting chunks become servable via `CHUNK_REQUEST`.
    /// Returns `None` for unknown digests, and for params beyond the
    /// `MAX_DERIVED_PARAMS` distinct-params budget (the caller then
    /// falls back to a full transfer).
    pub fn manifest_for(&self, digest: u64, params: &ChunkingParams) -> Option<ChunkManifest> {
        self.state.lock().manifest_for(digest, params)
    }

    /// Memoized chunked-delta plan for upgrading a client that holds
    /// `have_chunks` to the image at `digest`, under the client's
    /// `params`. The first request from a given `(target, base, params)`
    /// computes the plan (deriving the manifest if needed); every later
    /// request with the same key — the common case inside one rollout
    /// wave — is a cache hit. Returns the plan and whether it was served
    /// from cache; `None` where [`manifest_for`](Self::manifest_for)
    /// would return `None`.
    pub fn delta_plan(
        &self,
        digest: u64,
        params: &ChunkingParams,
        have_chunks: &[u64],
    ) -> Option<(DeltaPlan, bool)> {
        let key = (digest, fnv1a64_lanes(have_chunks), *params);
        let mut st = self.state.lock();
        if let Some(plan) = st.plans.get(&key) {
            return Some((plan.clone(), true));
        }
        let manifest = st.manifest_for(digest, params)?;
        let missing = manifest.missing_given(have_chunks);
        let plan = DeltaPlan { manifest, missing };
        if st.plans.len() < MAX_DELTA_PLANS {
            st.plans.insert(key, plan.clone());
        }
        Some((plan, false))
    }

    /// Chunk bytes by chunk digest.
    pub fn chunk(&self, digest: u64) -> Option<Bytes> {
        let mut st = self.state.lock();
        st.settle();
        st.chunks.get(&digest).cloned()
    }

    /// Inserts a single verified chunk (used by read-through mirrors).
    /// Returns `false` when the payload does not match the digest.
    pub fn put_chunk(&self, digest: u64, bytes: Bytes) -> bool {
        if fnv1a64(&bytes) != digest {
            return false;
        }
        self.state.lock().chunks.entry(digest).or_insert(bytes);
        true
    }

    /// Whether an image with this digest is indexed.
    pub fn contains_image(&self, digest: u64) -> bool {
        self.state.lock().images.contains_key(&digest)
    }

    /// Number of indexed images.
    pub fn image_count(&self) -> usize {
        self.state.lock().images.len()
    }

    /// Number of indexed chunks.
    pub fn chunk_count(&self) -> usize {
        let mut st = self.state.lock();
        st.settle();
        st.chunks.len()
    }

    /// Number of chunks cut so far, without cutting the images that are
    /// not indexed yet: what a `Debug` print may read.
    pub(crate) fn chunks_cut(&self) -> usize {
        self.state.lock().chunks.len()
    }

    /// All chunk digests indexed, sorted.
    pub fn chunk_digests(&self) -> Vec<u64> {
        let mut st = self.state.lock();
        st.settle();
        st.chunks.keys().copied().collect()
    }

    /// All image digests currently indexed, sorted.
    pub fn image_digests(&self) -> Vec<u64> {
        self.state.lock().images.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(len: usize, seed: u8) -> Bytes {
        Bytes::from(drivolution_core::entropy_blob(len, seed as u64))
    }

    #[test]
    fn insert_indexes_chunks() {
        for params in [ChunkingParams::fixed(1024), ChunkingParams::default()] {
            let idx = ContentIndex::new();
            let img = image(100_000, 1);
            let d = idx.insert(img.clone(), &params);
            assert_eq!(idx.image(d), Some(img));
            let m = idx.manifest(d).unwrap();
            assert_eq!(m.params, params);
            assert_eq!(idx.chunk_count(), m.chunk_count());
            for cd in &m.chunks {
                assert!(idx.chunk(*cd).is_some());
            }
        }
    }

    #[test]
    fn an_insert_cuts_nothing_until_a_chunk_is_read() {
        let foreign = ChunkingParams::fixed(2048);
        for params in [ChunkingParams::fixed(1024), ChunkingParams::default()] {
            let img = image(100_000, 6);
            let (eager, pairs) = manifest_and_chunks_of(&Digested::of(img.clone()), &params);
            let eager_chunks: BTreeMap<u64, Bytes> = pairs.into_iter().collect();
            // Either first read settles the index the same way.
            for first_read_is_chunk in [true, false] {
                let idx = ContentIndex::new();
                let d = idx.insert(img.clone(), &params);
                {
                    let st = idx.state.lock();
                    assert!(st.manifests.is_empty() && st.chunks.is_empty());
                    assert!(st.derived_params.contains(&params), "the budget is charged");
                }
                assert_eq!(idx.image(d), Some(img.clone()));
                if first_read_is_chunk {
                    assert_eq!(
                        idx.chunk(eager.chunks[0]),
                        eager_chunks.get(&eager.chunks[0]).cloned()
                    );
                } else {
                    assert_eq!(idx.chunk_count(), eager_chunks.len());
                }
                {
                    let st = idx.state.lock();
                    assert_eq!(st.chunks, eager_chunks);
                    assert_eq!(st.manifests.get(&(d, params)), Some(&eager));
                    assert!(st.unindexed.is_empty());
                }
                // A foreign derivation afterwards is what it always was,
                // and leaves the image's own manifest alone.
                let m = idx.manifest_for(d, &foreign).unwrap();
                assert_eq!(m, ChunkManifest::of_with(&img, &foreign));
                assert_eq!(idx.manifest(d), Some(eager.clone()));
            }
        }
    }

    #[test]
    fn shared_chunks_are_stored_once() {
        let idx = ContentIndex::new();
        let v1 = image(8192, 2);
        let mut v2_bytes = v1.to_vec();
        v2_bytes[0] ^= 0xff; // only chunk 0 differs
        let v2 = Bytes::from(v2_bytes);
        let params = ChunkingParams::fixed(1024);
        idx.insert(v1, &params);
        idx.insert(v2, &params);
        assert_eq!(idx.image_count(), 2);
        // 8 chunks each, 7 shared: 9 distinct.
        assert_eq!(idx.chunk_count(), 9);
    }

    #[test]
    fn manifest_for_derives_foreign_params_and_serves_their_chunks() {
        let idx = ContentIndex::new();
        let img = image(64 * 1024, 3);
        // Indexed under the server's default CDC params...
        let d = idx.insert(img.clone(), &ChunkingParams::default());
        // ...but a client chunking fixed/2048 still gets a manifest, and
        // every chunk of that manifest is immediately servable.
        let foreign = ChunkingParams::fixed(2048);
        let m = idx.manifest_for(d, &foreign).unwrap();
        assert_eq!(m.params, foreign);
        assert_eq!(m.chunk_count(), 32);
        for cd in &m.chunks {
            assert!(idx.chunk(*cd).is_some(), "foreign chunk not indexed");
        }
        // Unknown digests derive nothing.
        assert!(idx.manifest_for(d ^ 1, &foreign).is_none());
    }

    #[test]
    fn derived_params_budget_bounds_hostile_have_summaries() {
        let idx = ContentIndex::new();
        let img = image(16 * 1024, 4);
        let d = idx.insert(img, &ChunkingParams::default()); // slot 1
                                                             // A client cycling distinct params gets cut off at the budget...
        let mut served = 0;
        for size in 0..32u32 {
            if idx
                .manifest_for(d, &ChunkingParams::fixed(512 + size))
                .is_some()
            {
                served += 1;
            }
        }
        assert_eq!(served, MAX_DERIVED_PARAMS - 1, "budget not enforced");
        // ...while already-derived params keep being served from cache.
        assert!(idx.manifest_for(d, &ChunkingParams::fixed(512)).is_some());
        assert!(idx.manifest_for(d, &ChunkingParams::default()).is_some());
    }

    #[test]
    fn delta_plans_are_memoized_per_base_and_bounded() {
        let idx = ContentIndex::new();
        let params = ChunkingParams::fixed(1024);
        let v1 = image(8192, 5);
        let mut v2_bytes = v1.to_vec();
        v2_bytes[0] ^= 0xff;
        let v2 = Bytes::from(v2_bytes);
        let d1 = idx.insert(v1, &params);
        let d2 = idx.insert(v2, &params);
        let base = idx.manifest(d1).unwrap().chunks;

        // A wave of clients on the same base: one miss, then hits.
        let (plan, hit) = idx.delta_plan(d2, &params, &base).unwrap();
        assert!(!hit);
        assert_eq!(plan.missing.len(), 1);
        for _ in 0..9 {
            let (again, hit) = idx.delta_plan(d2, &params, &base).unwrap();
            assert!(hit);
            assert_eq!(again.missing, plan.missing);
        }

        // A different base is a distinct plan (fresh miss).
        let (cold, hit) = idx.delta_plan(d2, &params, &base[..2]).unwrap();
        assert!(!hit);
        // v2 differs from v1 only in chunk 0: of its 8 chunks, only
        // base[1] is already held.
        assert_eq!(cold.missing.len(), 7);

        // A hostile client cycling fabricated HAVE sets cannot grow the
        // memo past its cap — extra plans are computed but not stored.
        for i in 0..(MAX_DELTA_PLANS as u64 + 50) {
            let fake = vec![0xbad0_0000 + i];
            let (p, hit) = idx.delta_plan(d2, &params, &fake).unwrap();
            assert!(!hit);
            assert_eq!(p.missing.len(), 8);
        }
        assert!(idx.state.lock().plans.len() <= MAX_DELTA_PLANS);
        // Unknown digests yield no plan (and no stored entry).
        assert!(idx.delta_plan(d2 ^ 1, &params, &base).is_none());
    }

    #[test]
    fn put_chunk_verifies_digest() {
        let idx = ContentIndex::new();
        let chunk = Bytes::from(vec![1, 2, 3]);
        let d = fnv1a64(&chunk);
        assert!(idx.put_chunk(d, chunk.clone()));
        assert!(!idx.put_chunk(d ^ 1, chunk));
        assert_eq!(idx.chunk_count(), 1);
    }
}
