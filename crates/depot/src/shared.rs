//! Zone-level sharing of driver images: assembled upgrades and
//! bootstrapped downloads alike.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

/// Cap on cached images. A rollout involves one or two live target
/// versions per zone; the cap only matters when something cycles
/// through many digests, and then the whole cache is flushed at once —
/// wholesale clearing keeps behavior independent of insertion order
/// (no recency bookkeeping), like the statement cache in minidb.
const MAX_SHARED_IMAGES: usize = 8;

/// A zone-level cache of full driver images, shared by the clients of
/// one zone (in `FleetSim`, the clients behind one renewal aggregator:
/// one cache per zone, one for an unzoned fleet).
///
/// During a rollout wave every client in a zone assembles the *same*
/// target image from the same delta plan. Without sharing, a 10k-client
/// fleet materializes 10k identical copies onto freshly faulted pages —
/// measured as the dominant cost of upgrade wall time, far ahead of the
/// request traffic itself. The first client to assemble an image
/// publishes its refcounted bytes; every later client adopts the shared
/// allocation, so the per-wave memory and page-fault cost collapses from
/// O(clients × image) to O(image).
///
/// Bootstraps intern the same way. Every client still downloads,
/// verifies and loads its own full file, but its depot then keeps the
/// cache entry's handle when that entry's bytes equal the ones that
/// arrived; otherwise it keeps its own and publishes them. A zone thus
/// holds one copy of the image its clients started on, not one each.
///
/// Trust: the cache holds bytes only, and it is advisory, never
/// authoritative. An adopted upgrade is hashed and held against the
/// client's own offer's size and content digest, then signature-checked
/// and loaded, before its depot records it; a bootstrap takes an entry
/// only on byte equality with what it downloaded and verified, never on
/// a digest match. Either way a depot only ever holds bytes under the
/// digest it computed itself, and cuts its chunks from those bytes, so a
/// poisoned or stale entry is rejected exactly like a corrupt download
/// and can never be loaded or cached downstream.
#[derive(Debug, Default)]
pub struct SharedImageCache {
    entries: Mutex<HashMap<u64, Bytes>>,
}

impl SharedImageCache {
    /// Creates an empty cache, ready to hand to every bootloader of a
    /// zone via `BootloaderConfig::with_image_cache`.
    pub fn new() -> Arc<Self> {
        Arc::new(SharedImageCache::default())
    }

    /// The shared image under `digest`, if a peer already assembled or
    /// downloaded it: a refcounted handle onto the publisher's bytes.
    pub fn get(&self, digest: u64) -> Option<Bytes> {
        self.entries.lock().get(&digest).cloned()
    }

    /// Publishes an assembled or downloaded image for peers. The caller
    /// must have verified `bytes` against `digest` already (consumers
    /// re-verify or compare, so a bad publish wastes work but cannot
    /// propagate).
    pub fn put(&self, digest: u64, bytes: Bytes) {
        let mut entries = self.entries.lock();
        if entries.len() >= MAX_SHARED_IMAGES && !entries.contains_key(&digest) {
            entries.clear();
        }
        entries.insert(digest, bytes);
    }

    /// Number of cached images.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip_shares_allocations() {
        let cache = SharedImageCache::new();
        let img = Bytes::from(vec![7u8; 4096]);
        assert!(cache.get(42).is_none());
        cache.put(42, img.clone());
        let got = cache.get(42).unwrap();
        assert_eq!(got, img);
        assert_eq!(got.as_ptr(), img.as_ptr());
    }

    #[test]
    fn cache_clears_wholesale_at_cap() {
        let cache = SharedImageCache::new();
        for d in 0..MAX_SHARED_IMAGES as u64 {
            cache.put(d, Bytes::from(vec![d as u8]));
        }
        assert_eq!(cache.len(), MAX_SHARED_IMAGES);
        // Re-publishing a present digest does not flush...
        cache.put(0, Bytes::from(vec![0]));
        assert_eq!(cache.len(), MAX_SHARED_IMAGES);
        // ...a new one does, and then occupies the fresh table alone.
        cache.put(99, Bytes::from(vec![9]));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(99).is_some());
        assert!(cache.get(0).is_none());
    }
}
