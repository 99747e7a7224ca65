//! The image digest is computed once and travels with the bytes. These
//! properties hold every way an image can enter a depot against the
//! carry-free definition — hash the bytes, scan the boundaries — so no
//! manifest, chunk map or peer cache can make a depot believe a digest
//! it did not compute.

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use drivolution::core::chunk::{manifest_and_chunks, ChunkManifest, ChunkingParams};
use drivolution::core::pack::pack_driver_padded;
use drivolution::core::proto::{DrvMsg, DrvRequest, HaveSummary};
use drivolution::core::{entropy_blob, fnv1a64, Digested};
use drivolution::depot::{ContentIndex, SharedImageCache};
use drivolution::prelude::*;

const DB: &str = "orders";

fn params(pick: u8) -> ChunkingParams {
    match pick % 4 {
        0 => ChunkingParams::fixed(1024),
        1 => ChunkingParams::fixed(4096),
        2 => ChunkingParams::cdc(512, 2048, 8192),
        _ => ChunkingParams::default(),
    }
}

/// What a depot under `params` must hold after `image` entered it by
/// any route: the hashed bytes, the scanned manifest, every chunk.
fn assert_holds(depot: &DriverDepot, digest: u64, image: &Bytes, params: &ChunkingParams) {
    assert_eq!(digest, fnv1a64(image));
    assert_eq!(depot.lookup(digest).as_ref(), Some(image));
    let expected = ChunkManifest::of_with(image, params);
    assert_eq!(expected.content_digest, digest);
    let summary = depot.have_summary(DB).expect("depot is not empty");
    assert!(summary.images.contains(&digest));
    assert_eq!(summary.base, Some(digest));
    for d in &expected.chunks {
        let chunk = depot
            .chunk(*d)
            .expect("every chunk of the image is indexed");
        assert_eq!(fnv1a64(&chunk), *d);
    }
}

/// What an index must answer when asked for `image` under params it was
/// not inserted with: the manifest that hashing and scanning the bytes
/// under those params gives, every chunk of it servable.
fn assert_derives(index: &ContentIndex, digest: u64, image: &Bytes, params: &ChunkingParams) {
    assert_eq!(digest, fnv1a64(image));
    let derived = index
        .manifest_for(digest, params)
        .expect("a held image, within the params budget");
    assert_eq!(derived, ChunkManifest::of_with(image, params));
    for d in &derived.chunks {
        let chunk = index.chunk(*d).expect("every derived chunk is indexed");
        assert_eq!(fnv1a64(&chunk), *d);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_insert_route_agrees_with_hash_and_scan(
        seed in any::<u64>(),
        len in 1usize..96 * 1024,
        depot_pick in any::<u8>(),
        foreign_pick in 1u8..4,
    ) {
        let image = Bytes::from(entropy_blob(len, seed));
        let own = params(depot_pick);
        let foreign = params(depot_pick.wrapping_add(foreign_pick));
        let other = Bytes::from(entropy_blob(len, !seed));

        let plain = DriverDepot::with_params(own);
        assert_holds(&plain, plain.insert(DB, image.clone()), &image, &own);

        // An assembled image enters hashed, whatever manifest and
        // chunks it was assembled from.
        let depot = DriverDepot::with_params(own);
        let d = depot.insert_digested(DB, Digested::of(image.clone()));
        assert_holds(&depot, d, &image, &own);

        // The foreign-params route: the index derives the other
        // chunking from the image it holds and the digest it holds it
        // under, whichever way the image came in.
        let scanned = ContentIndex::new();
        assert_derives(&scanned, scanned.insert(image.clone(), &own), &image, &foreign);
        let foreign_first = ContentIndex::new();
        let d = foreign_first.insert_digested(Digested::of(image.clone()), &foreign);
        assert_derives(&foreign_first, d, &image, &own);

        // A manifest that describes other bytes — digest, size and chunk
        // list consistent with each other, none with the image — buys
        // nothing: the insert takes the bytes, never a manifest.
        let (lying, _) = manifest_and_chunks(&other, &own);
        let mut off_by_one = ChunkManifest::of_with(&image, &own);
        off_by_one.content_digest ^= 1;
        for manifest in [&lying, &off_by_one] {
            let depot = DriverDepot::with_params(own);
            let d = depot.insert_digested(DB, Digested::of(image.clone()));
            prop_assert_ne!(d, manifest.content_digest);
            assert_holds(&depot, d, &image, &own);
            prop_assert!(depot.lookup(manifest.content_digest).is_none());
        }
    }
}

/// A server that published `v1` and now grants only `v2`.
fn server_with_v1_indexed(v1: &Bytes, v2: &Bytes) -> Arc<DrivolutionServer> {
    let net = Network::new();
    let db = Arc::new(MiniDb::with_clock(DB, net.clock().clone()));
    let addr = Addr::new("db1", DRIVOLUTION_PORT);
    let srv = attach_in_database(&net, db, addr, ServerConfig::default()).unwrap();
    for (id, bytes) in [(1, v1), (2, v2)] {
        let rec = DriverRecord::new(
            DriverId(id),
            ApiName::rdbc(),
            BinaryFormat::Djar,
            bytes.clone(),
        )
        .with_version(DriverVersion::new(id as i32, 0, 0));
        srv.install_driver(&rec).unwrap();
    }
    srv.add_rule(&PermissionRule::any(DriverId(2))).unwrap();
    srv
}

// The server turns a named base into the chunk list the client holds:
// the plan it answers with is the one hashing and scanning both images
// under the client's params gives.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_named_base_plans_what_hash_and_scan_gives(
        seed in any::<u64>(),
        len in 1024usize..96 * 1024,
        edit_at in any::<u32>(),
        edit_len in 1usize..8 * 1024,
        pick in any::<u8>(),
    ) {
        let v1 = entropy_blob(len, seed);
        let mut v2 = v1.clone();
        let at = edit_at as usize % len;
        let end = (at + edit_len).min(len);
        v2[at..end].copy_from_slice(&entropy_blob(end - at, !seed));
        v2[at] = !v1[at];
        let (v1, v2) = (Bytes::from(v1), Bytes::from(v2));
        let params = params(pick);
        let srv = server_with_v1_indexed(&v1, &v2);

        let base = fnv1a64(&v1);
        let mut req = DrvRequest::bootstrap(DB, "app", "RDBC", "linux-x86_64");
        req.have = Some(HaveSummary { images: vec![base], params, base: Some(base) });
        let DrvMsg::Offer(offer) = srv.handle(&Addr::new("app1", 1), DrvMsg::Request(req)) else {
            panic!("expected an offer");
        };
        let target = ChunkManifest::of_with(&v2, &params);
        let missing = target.missing_given(&ChunkManifest::of_with(&v1, &params).chunks);
        match offer.chunked {
            Some(plan) => {
                prop_assert_eq!(plan.manifest, target);
                prop_assert_eq!(plan.missing, missing);
            }
            // No chunk in common: a delta would ship everything anyway.
            None => prop_assert_eq!(missing.len(), target.chunk_count()),
        }
    }
}

fn record(id: i64, version: DriverVersion, padding: usize) -> DriverRecord {
    let image = DriverImage::new("carry-driver", version, 1);
    let bytes = pack_driver_padded(BinaryFormat::Djar, &image, padding);
    DriverRecord::new(DriverId(id), ApiName::rdbc(), BinaryFormat::Djar, bytes)
        .with_version(version)
}

/// A database at `db1` whose Drivolution server grants `first`.
fn world(first: &DriverRecord) -> (Network, Arc<DrivolutionServer>) {
    let net = Network::new();
    let db = Arc::new(MiniDb::with_clock(DB, net.clock().clone()));
    net.bind_arc(Addr::new("db1", 5432), Arc::new(DbServer::new(db.clone())))
        .unwrap();
    let addr = Addr::new("db1", DRIVOLUTION_PORT);
    let srv = attach_in_database(&net, db, addr, ServerConfig::default()).unwrap();
    srv.install_driver(first).unwrap();
    (net, srv)
}

/// A depot client of `cache`'s zone at `host`, bootstrapped.
fn bootstrapped(
    net: &Network,
    srv: &DrivolutionServer,
    host: &str,
    cache: &Arc<SharedImageCache>,
) -> (Arc<Bootloader>, Arc<DriverDepot>) {
    let depot = DriverDepot::in_memory();
    let config = BootloaderConfig::same_host()
        .trusting(srv.certificate())
        .with_depot(depot.clone())
        .with_image_cache(cache.clone());
    let boot = Bootloader::new(net, Addr::new(host, 1), config);
    let url: DbUrl = "rdbc:minidb://db1:5432/orders".parse().unwrap();
    boot.connect(&url, &ConnectProps::user("admin", "admin"))
        .unwrap();
    (boot, depot)
}

/// The zone-shared image cache end to end: the second client of a zone
/// adopts the first one's assembled image, and its depot ends up holding
/// exactly what the first one's does.
#[test]
fn shared_cache_adoption_leaves_the_same_depot_as_an_assembly() {
    for padding in [40 << 10, 64 << 10, 96 << 10] {
        let (net, srv) = world(&record(1, DriverVersion::new(1, 0, 0), padding));
        let cache = SharedImageCache::new();
        let clients: Vec<_> = ["app1", "app2"]
            .iter()
            .map(|host| bootstrapped(&net, &srv, host, &cache))
            .collect();

        let v2 = record(2, DriverVersion::new(2, 0, 0), padding);
        srv.install_driver(&v2).unwrap();
        let upgrade = PermissionRule::any(DriverId(2))
            .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit);
        srv.add_rule(&upgrade).unwrap();
        net.clock().advance_ms(4_000_000);
        for (boot, depot) in &clients {
            assert!(matches!(boot.poll(), PollOutcome::Upgraded { .. }));
            assert_holds(depot, fnv1a64(&v2.binary), &v2.binary, &depot.params());
        }
        assert_eq!(clients[0].0.stats().shared_image_reuses, 0);
        assert_eq!(clients[1].0.stats().shared_image_reuses, 1);
        assert_eq!(clients[0].1.have_summary(DB), clients[1].1.have_summary(DB));
    }
}

/// A bootstrap keeps the bytes its zone already holds: both clients
/// download and verify their own copy, and both depots end up on one
/// allocation that hashes and scans like the package.
#[test]
fn a_zone_holds_one_copy_of_a_bootstrapped_image() {
    let v1 = record(1, DriverVersion::new(1, 0, 0), 64 << 10);
    let (net, srv) = world(&v1);
    let cache = SharedImageCache::new();
    let digest = fnv1a64(&v1.binary);
    let clients = ["app1", "app2"].map(|host| bootstrapped(&net, &srv, host, &cache));
    let held = clients
        .each_ref()
        .map(|(_, depot)| depot.lookup(digest).unwrap());
    assert_eq!(
        held[0].as_ptr(),
        held[1].as_ptr(),
        "one allocation per zone"
    );
    for (boot, depot) in &clients {
        assert_eq!(boot.stats().downloads, 1);
        assert_eq!(boot.stats().shared_image_reuses, 0);
        assert_holds(depot, digest, &v1.binary, &depot.params());
    }
    assert_eq!(srv.stats().files, 2, "every client still fetched the file");
    assert_eq!(clients[0].1.have_summary(DB), clients[1].1.have_summary(DB));
}

/// Only equal bytes are interned: a cache entry under the package's
/// digest that holds other bytes (a collision, or a poisoned peer) never
/// enters a depot, which keeps what arrived and publishes it in its place.
#[test]
fn a_cache_entry_with_other_bytes_is_not_interned() {
    let v1 = record(1, DriverVersion::new(1, 0, 0), 64 << 10);
    let (net, srv) = world(&v1);
    let cache = SharedImageCache::new();
    let digest = fnv1a64(&v1.binary);
    let mut other = v1.binary.to_vec();
    other[100] ^= 1;
    let other = Bytes::from(other);
    cache.put(digest, other.clone());
    let (boot, depot) = bootstrapped(&net, &srv, "app1", &cache);
    assert_eq!(boot.stats().downloads, 1);
    let held = depot.lookup(digest).unwrap();
    assert_ne!(held.as_ptr(), other.as_ptr());
    assert_holds(&depot, digest, &v1.binary, &depot.params());
    let published = cache.get(digest).unwrap();
    assert_eq!(
        published.as_ptr(),
        held.as_ptr(),
        "the arrived bytes replace the entry"
    );
}
