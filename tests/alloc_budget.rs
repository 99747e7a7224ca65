//! Allocation budget of the bulk path: a cold sealed bootstrap and a
//! chunked delta may allocate a small multiple of the bytes they move,
//! and nothing larger than the package itself. drvbench reports the same
//! quantity as `mem.copy_factor`, but only when someone runs it; this is
//! the deterministic guard.
//!
//! The same allocator also counts live bytes, which guards what a
//! simulated client costs to hold once bootstrapped.
//!
//! Own test binary: the counting allocator is process-wide.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use drivolution::core::chunk::{manifest_and_chunks, ChunkSet, ChunkingParams};
use drivolution::core::pack::pack_driver_padded;
use drivolution::core::proto::{DrvErrCode, DrvMsg, DrvOffer, DrvRequest, RequestKind};
use drivolution::core::transfer;
use drivolution::core::ClientIdentity;
use drivolution::fleet::{FleetSim, DEFAULT_POLL_EVERY};
use drivolution::netsim::codec::Wire;
use drivolution::netsim::{FnService, Service};
use drivolution::prelude::*;
use drivolution::server::LicenseManager;

mod frames;

/// The system allocator plus, while `ON` on the allocating thread, the
/// bytes requested, the largest single request and the bytes live (freed
/// ones subtracted). A `realloc` counts as one allocation of the new
/// size: that is what it may copy. Counting
/// only the measuring thread keeps the harness's own bookkeeping (a
/// finished test reported while another measures) out of the figures.
struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
}
static BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

fn count(size: usize) {
    if ON.with(Cell::get) {
        BYTES.fetch_add(size as u64, Relaxed);
        ALLOCS.fetch_add(1, Relaxed);
        LARGEST.fetch_max(size as u64, Relaxed);
        LIVE.fetch_add(size as i64, Relaxed);
    }
}

fn free(size: usize) {
    if ON.with(Cell::get) {
        LIVE.fetch_sub(size as i64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the counters are plain
// atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        free(layout.size());
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        free(layout.size());
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// One measurement at a time: the counters are shared by every test
/// thread of this binary.
static GATE: Mutex<()> = Mutex::new(());

/// Runs `f` and returns (bytes allocated, largest single allocation).
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (out, bytes, largest, _) = measured_live(f);
    (out, bytes, largest)
}

/// [`measured`], plus the bytes `f` left live (what it allocated and
/// did not free; memory it freed from before counts against it).
fn measured_live<T>(f: impl FnOnce() -> T) -> (T, u64, u64, i64) {
    BYTES.store(0, Relaxed);
    LARGEST.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    let live = LIVE.load(Relaxed);
    (out, BYTES.load(Relaxed), LARGEST.load(Relaxed), live)
}

/// Runs `f` and returns the number of allocations it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Relaxed);
    let (out, ..) = measured(f);
    (out, ALLOCS.load(Relaxed))
}

/// Holds `(bytes, largest)` against `package`: at most `factor` × the
/// package in total, and no single allocation above 1.01 × the package
/// (a buffer grown to fit that then doubles shows up here first).
fn assert_budget(what: &str, package: usize, factor: f64, bytes: u64, largest: u64) {
    let package = package as f64;
    assert!(
        bytes as f64 <= factor * package,
        "{what}: allocated {bytes} B, {:.2} × the {package} B package (budget {factor})",
        bytes as f64 / package
    );
    assert!(
        largest as f64 <= 1.01 * package,
        "{what}: one allocation of {largest} B for a {package} B package"
    );
}

fn record(id: i64, version: DriverVersion, padding: usize) -> DriverRecord {
    let image = DriverImage::new("budget-driver", version, 1);
    let bytes = pack_driver_padded(BinaryFormat::Djar, &image, padding);
    DriverRecord::new(DriverId(id), ApiName::rdbc(), BinaryFormat::Djar, bytes)
        .with_version(version)
}

struct Rig {
    net: Network,
    srv: Arc<DrivolutionServer>,
    url: DbUrl,
}

fn rig(first: &DriverRecord) -> Rig {
    let net = Network::new();
    let db = Arc::new(MiniDb::with_clock("orders", net.clock().clone()));
    net.bind_arc(Addr::new("db1", 5432), Arc::new(DbServer::new(db.clone())))
        .unwrap();
    let addr = Addr::new("db1", DRIVOLUTION_PORT);
    let srv = attach_in_database(&net, db, addr, ServerConfig::default()).unwrap();
    srv.install_driver(first).unwrap();
    Rig {
        net,
        srv,
        url: "rdbc:minidb://db1:5432/orders".parse().unwrap(),
    }
}

/// A fresh client with an empty in-memory depot.
fn client(rig: &Rig, host: &str) -> (Arc<Bootloader>, Arc<DriverDepot>) {
    let depot = DriverDepot::in_memory();
    let config = BootloaderConfig::same_host()
        .trusting(rig.srv.certificate())
        .with_depot(depot.clone());
    (Bootloader::new(&rig.net, Addr::new(host, 1), config), depot)
}

fn connect(rig: &Rig, boot: &Arc<Bootloader>) {
    boot.connect(&rig.url, &ConnectProps::user("admin", "admin"))
        .unwrap();
}

/// (package size, bytes allocated, largest allocation) of one cold
/// sealed 1 MiB bootstrap into an empty depot: one request, answered
/// with the offer and the file in one frame.
fn cold_sealed_bootstrap() -> (usize, u64, u64) {
    let v1 = record(1, DriverVersion::new(1, 0, 0), 1 << 20);
    let rig = rig(&v1);
    // The first bootstrap pays the process's one-off set-up; the second
    // is what every later one costs.
    let (warm_up, _) = client(&rig, "app1");
    connect(&rig, &warm_up);
    let (boot, depot) = client(&rig, "app2");
    let server = Addr::new("db1", DRIVOLUTION_PORT);
    let asked = rig.net.stats().for_addr(&server).requests;
    let ((), bytes, largest) = measured(|| connect(&rig, &boot));
    assert_eq!(rig.net.stats().for_addr(&server).requests - asked, 1);
    assert_eq!(rig.srv.stats().files, 2);
    assert_eq!(boot.stats().downloads, 1);
    assert_eq!(depot.image_count(), 1);
    (v1.binary.len(), bytes, largest)
}

#[test]
fn cold_sealed_bootstrap_allocates_about_twice_the_package() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (package, bytes, largest) = cold_sealed_bootstrap();
    // The budget PR 16 set: a sealed envelope and a FILE_DATA frame
    // copied around it, deciphered in place (a client that could not
    // would read 3.0). Kept as the outer fence of the test below.
    assert_budget("cold sealed bootstrap", package, 2.2, bytes, largest);
}

#[test]
fn cold_sealed_bootstrap_copies_the_package_once() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (package, bytes, largest) = cold_sealed_bootstrap();
    // One package-sized buffer for the whole hop: the OFFER_FILE frame is
    // built around the offer and the envelope it carries, and the client
    // deciphers that same buffer in place and keeps it. A frame copied
    // around a finished envelope reads 2.04.
    assert_budget("cold sealed bootstrap", package, 1.2, bytes, largest);
}

#[test]
fn a_cold_bootstrap_indexes_nothing_it_was_not_asked_for() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (package, bytes, _) = cold_sealed_bootstrap();
    // The package-sized buffer and a few KiB of frames, lease and VM
    // state. The depot records the image and cuts it into chunks only
    // when a delta first asks: a boundary scan at insert added a
    // manifest and a chunk map, 36 578 B over the package here.
    assert!(
        bytes <= package as u64 + (8 << 10),
        "cold sealed bootstrap: allocated {} B over the {package} B package (budget 8 KiB)",
        bytes as i64 - package as i64
    );
}

#[test]
fn an_idle_poll_allocates_nothing() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let v1 = record(1, DriverVersion::new(1, 0, 0), 4 << 10);
    let rig = rig(&v1);
    let (boot, _) = client(&rig, "app1");
    connect(&rig, &boot);
    // A valid lease and no notice: the poll looks at the active
    // namespace (twice) and has nothing to do. A fleet idles like this
    // ten times per renewal; a `Namespace` cloned by value cost 84 B in
    // eight allocations each time.
    let (outcome, bytes, _) = measured(|| boot.poll());
    assert!(matches!(outcome, PollOutcome::Idle), "{outcome:?}");
    assert_eq!(bytes, 0, "an idle poll allocated {bytes} B");
}

#[test]
fn a_calm_request_allocates_nothing() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let net = Network::new();
    let (app, echo) = (Addr::new("app1", 1), Addr::new("echo", 7));
    net.bind(echo.clone(), FnService::new(|_from, req| Ok(req)))
        .unwrap();
    net.with_topology(|t| {
        t.set_default_latency(1, 20);
        t.place("app1", "east");
        t.place("echo", "west");
    });
    let payload = bytes::Bytes::from_static(b"ping");
    // The first request is the stats entry's first sight of `echo`.
    net.request(&app, &echo, payload.clone()).unwrap();
    // No fault installed: one path lock, the service lookup and the
    // stats entry, with no owned fault key and no `Addr` clone.
    let (reply, bytes, _) = measured(|| net.request(&app, &echo, payload.clone()));
    assert_eq!(reply.unwrap(), payload);
    assert_eq!(bytes, 0, "a calm request allocated {bytes} B");
    assert_eq!(net.stats().for_addr(&echo).requests, 2);
    assert_eq!(net.clock().now_ms(), 80, "two legs of 20 ms per request");
}

#[test]
fn chunked_delta_allocates_about_the_package() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let v1 = record(1, DriverVersion::new(1, 0, 0), 64 << 10);
    let v2 = record(2, DriverVersion::new(2, 0, 0), 64 << 10);
    let rig = rig(&v1);
    let clients: Vec<_> = ["app1", "app2"].iter().map(|h| client(&rig, h)).collect();
    for (boot, _) in &clients {
        connect(&rig, boot);
    }
    rig.srv.install_driver(&v2).unwrap();
    let upgrade = PermissionRule::any(DriverId(2))
        .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit);
    rig.srv.add_rule(&upgrade).unwrap();
    rig.net.clock().advance_ms(4_000_000); // expire the leases
    let mut costs = Vec::new();
    for (boot, depot) in &clients {
        let (outcome, bytes, largest) = measured(|| boot.poll());
        assert!(
            matches!(outcome, PollOutcome::Upgraded { .. }),
            "{outcome:?}"
        );
        assert_eq!(boot.stats().delta_downloads, 1);
        assert_eq!(depot.image_count(), 2);
        costs.push((bytes, largest));
    }
    // One assembly buffer, plus what a renewal round trip and the
    // fetched chunks cost whatever the package size (about 40 KiB).
    let (bytes, largest) = costs[1];
    assert_budget("64 KiB chunked delta", v2.binary.len(), 2.0, bytes, largest);
}

#[test]
fn every_envelope_is_one_exactly_sized_allocation() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let payload = drivolution::core::entropy_blob(1 << 20, 5);
    let cert = drivolution::core::Certificate::issue("db1", 1);
    for method in [
        TransferMethod::Plain,
        TransferMethod::Checksum,
        TransferMethod::Sealed,
    ] {
        let (wrapped, bytes, largest) =
            measured(|| transfer::wrap(method, &payload, Some(&cert)).unwrap());
        // The envelope, plus the few dozen bytes of the shared handle.
        assert_eq!(largest, wrapped.len() as u64, "{method}");
        assert!(bytes < largest + 256, "{method}: {bytes} B for {largest} B");
        // The inline reply: the offer, then the envelope sealed behind it
        // in the same buffer.
        let offer = inline_offer(method, payload.len());
        let (frame, bytes, largest) =
            measured(|| DrvMsg::offer_file_frame(&offer, &payload, Some(&cert)).unwrap());
        assert_eq!(largest, frame.len() as u64, "{method}");
        assert_eq!(frame.len(), 1 + offer.wire_len() + 4 + wrapped.len());
        assert!(bytes < largest + 256, "{method}: {bytes} B for {largest} B");
    }
}

/// The offer an `OFFER_FILE` carries for a `size`-byte file.
fn inline_offer(transfer_method: TransferMethod, size: usize) -> DrvOffer {
    DrvOffer {
        driver_id: DriverId(1),
        driver_version: Some(DriverVersion::new(1, 0, 0)),
        same_driver: false,
        lease_ms: 60_000,
        renew_policy: RenewPolicy::Upgrade,
        expiration_policy: ExpirationPolicy::AfterCommit,
        format: BinaryFormat::Djar,
        location: String::new(),
        size: size as u64,
        transfer_method,
        options: Vec::new(),
        signature: None,
        content_digest: Some(7),
        chunked: None,
    }
}

#[test]
fn a_chunk_set_body_is_one_exactly_sized_allocation() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let image = bytes::Bytes::from(drivolution::core::entropy_blob(1 << 20, 6));
    let (_, chunks) = manifest_and_chunks(&image, &ChunkingParams::default());
    for take in [1, chunks.len() / 2, chunks.len()] {
        let set = ChunkSet {
            chunks: chunks[..take].to_vec(),
        };
        let (body, bytes, largest) = measured(|| set.encode());
        assert_eq!(
            body.len() as u64,
            4 + 12 * take as u64 + set.payload_bytes()
        );
        // The body, plus the few dozen bytes of the shared handle.
        assert_eq!(largest, body.len() as u64, "{take} chunks");
        assert!(
            bytes < largest + 256,
            "{take} chunks: {bytes} B for {largest} B"
        );
        assert_eq!(ChunkSet::decode(body).unwrap(), set);
    }
}

/// "Allocation follows bytes held" as an assert: whatever a count, size
/// or length field of a frame is overwritten with, decoding the frame
/// allocates a bounded multiple of the frame's own length. The widest
/// items are a one-column row (a 24-byte row header and a 32-byte cell
/// for one tag byte, 56 ×) and a batched `DrvOffer` (240 B for 7, 34 ×); a
/// count that sized a reservation by itself would read 10⁴–10⁹ × here
/// (or abort: `[2, 0,0, ff,ff,ff,ff]` to `ServerMsg::decode` once
/// reserved 103 GB).
#[test]
fn a_mutated_frame_allocates_in_proportion_to_its_length() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    for subject in frames::subjects() {
        frames::for_each_mutant(&subject, |what, mutant| {
            let budget = 128 * mutant.len() as u64 + 4096;
            let (_, bytes, _) = measured(|| (subject.decode)(mutant));
            assert!(
                bytes <= budget,
                "{what}: {bytes} B allocated, budget {budget} B"
            );
        });
    }
}

/// A one-shot statement of the fleet load is parsed from scratch on every
/// execution (its literals keep it out of the parse cache), so the front
/// end's bytes are paid per statement. Tokens borrow the text and one
/// token `Vec` is sized from its length; what is left is that `Vec` and
/// the AST's own strings and boxes: 2 441 B for the three. A lexer that
/// collected the text into a `Vec<char>` and a `String` per name, and a
/// parser that cloned every token, read 4 697 B.
#[test]
fn the_load_statements_parse_in_under_2700_bytes() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let load = [
        "INSERT INTO orders VALUES (10000017, 7, 'new')",
        "UPDATE orders SET status = 'shipped' WHERE id = 10000017",
        "SELECT qty FROM orders WHERE id = 10000017",
    ];
    let (parsed, bytes, _) = measured(|| load.map(drivolution::minidb::sql::parse));
    assert!(parsed.iter().all(Result::is_ok), "{parsed:?}");
    assert!(bytes <= 2_700, "{bytes} B allocated, budget 2 700 B");
}

/// What one entry of a `RENEW_BATCH` costs the server in bytes allocated,
/// from the frame off the wire to the `OFFER_BATCH` on it: 64 clients
/// renewing the driver they run, two drivers installed. The catalog's
/// answer (both driver rows) is read once per frame and shared, and so
/// are the request (decoded once for the 64 entries that name it) and
/// the offer (equal for all 64, written once); the entry's own
/// statements (Sample code 2's count, the lease INSERT), its host and
/// its seat are what is left: 665 B. Decoding the request and encoding
/// the offer per entry cost 1 438 B; reading the rows once per entry
/// 7 095 B.
#[test]
fn a_renew_batch_entry_allocates_under_three_kib() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let rig = rig(&record(1, DriverVersion::new(1, 0, 0), 4 << 10));
    rig.srv
        .install_driver(&record(2, DriverVersion::new(2, 0, 0), 4 << 10))
        .unwrap();
    const ENTRIES: usize = 64;
    let frame = || {
        let entries = (0..ENTRIES)
            .map(|i| {
                let mut req = DrvRequest::bootstrap("orders", "admin", "RDBC", "linux-x86_64");
                req.kind = RequestKind::Renewal {
                    current: DriverId(1),
                };
                (format!("app{i}"), Arc::new(req))
            })
            .collect();
        DrvMsg::RenewBatch { entries }.encode()
    };
    let aggregator = Addr::new("agg", 1);
    // The first frame pays the statement cache and the tables' growth.
    rig.srv.call(&aggregator, frame()).unwrap();
    let frame = frame();
    let (reply, bytes, _) = measured(|| rig.srv.call(&aggregator, frame).unwrap());
    let Ok(DrvMsg::OfferBatch { replies }) = DrvMsg::decode(reply) else {
        panic!("expected an offer batch");
    };
    assert_eq!(replies.len(), ENTRIES);
    assert!(replies
        .iter()
        .all(|r| matches!(&**r, Ok(o) if o.same_driver)));
    let per_entry = bytes / ENTRIES as u64;
    assert!(
        per_entry <= 720,
        "{per_entry} B allocated per entry, budget 720 B"
    );
}

/// Entries that name one table item share its decoded value, so a batch
/// frame decodes to at most a small multiple of its own length however
/// many entries repeat the item: here one request with 60 000 options
/// named by 100 000 entries, 6.08 MB for a 1.28 MB frame (the options'
/// empty strings are 48 B in memory for 8 B on the wire). A decoder that
/// gave every entry its own copy of the request would allocate the
/// options 100 000 times.
#[test]
fn a_renew_batch_of_one_wide_request_decodes_within_its_length() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let wide = Arc::new(DrvRequest {
        options: vec![(String::new(), String::new()); 60_000],
        ..DrvRequest::bootstrap("orders", "admin", "RDBC", "linux-x86_64")
    });
    let entries = vec![(String::new(), wide); 100_000];
    let frame = DrvMsg::RenewBatch { entries }.encode();
    let len = frame.len() as u64;
    let (msg, bytes, _) = measured(|| DrvMsg::decode(frame));
    assert!(matches!(msg, Ok(DrvMsg::RenewBatch { entries }) if entries.len() == 100_000));
    assert!(bytes <= 5 * len, "{bytes} B allocated for a {len} B frame");
}

/// The same for replies: one error with a 64 KiB message named by
/// 100 000 entries decodes the message once, 866 kB for a 466 kB frame.
#[test]
fn an_offer_batch_of_one_long_error_decodes_within_its_length() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let error = Arc::new(Err((DrvErrCode::Internal, "x".repeat(64 << 10))));
    let frame = DrvMsg::OfferBatch {
        replies: vec![error; 100_000],
    }
    .encode();
    let len = frame.len() as u64;
    let (msg, bytes, _) = measured(|| DrvMsg::decode(frame));
    assert!(matches!(msg, Ok(DrvMsg::OfferBatch { replies }) if replies.len() == 100_000));
    assert!(bytes <= 2 * len, "{bytes} B allocated for a {len} B frame");
}

/// A renewal finds its seat by the `&str`s it was given (the table is
/// keyed user → host → expiry and looked up by borrow), so renewing a
/// seat in place allocates nothing. Keyed by an owned `(user, host)`
/// pair, the table built both strings per renewal: 12 000 B for these
/// 1 000.
#[test]
fn a_seat_renewal_allocates_nothing() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    const SEATS: usize = 1_000;
    let hosts: Vec<String> = (0..SEATS).map(|i| format!("app{i:04}")).collect();
    let table = LicenseManager::new();
    table.set_limit(DriverId(1), SEATS);
    for h in &hosts {
        table.acquire(DriverId(1), "admin", h, 600_000, 0).unwrap();
    }
    let (renewed, bytes, _) = measured(|| {
        hosts.iter().all(|h| {
            table
                .acquire(DriverId(1), "admin", h, 600_000, 1_000)
                .is_ok()
        })
    });
    assert!(renewed, "a seated host was denied its renewal");
    assert_eq!(bytes, 0, "{SEATS} renewals allocated {bytes} B");
    // Every expiry moved out to 601 000: no seat has lapsed at 600 500.
    assert_eq!(table.available(DriverId(1), 600_500), Some(0));
}

/// A lease row allocates about what it stores. The table keeps one row
/// per binding, and every grant is one `INSERT OR REPLACE` that binds
/// the row's values: a binding's first grant stores its three strings
/// and the row, 7.17 allocations per row over 1 000 bindings (the
/// table's growth included); a later grant finds the binding's row by
/// the bound key values, borrowed, and writes the three numbers into it,
/// so it allocates only the three strings it binds, 3.00. Both run in an
/// admin session that allocates nothing. While a later grant built the
/// row as for an insert and then found it taken, it read 9.00, and a
/// first grant 9.18; before the table was keyed every grant appended a
/// row: 10.17 allocations each, over 1 000 grants to one identity.
#[test]
fn a_lease_log_row_allocates_what_it_stores() {
    const PER_ROW_FIRST: f64 = 7.2;
    const PER_ROW_RENEWED: f64 = 3.0;
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let rig = rig(&record(1, DriverVersion::new(1, 0, 0), 4 << 10));
    let store = rig.srv.store();
    // The first row pays the statement cache.
    let warm = ClientIdentity::new("admin", "warm", "orders");
    store.log_lease(&warm, DriverId(1), 0, 600_000).unwrap();
    const ROWS: u64 = 1_000;
    let who: Vec<ClientIdentity> = (0..ROWS)
        .map(|i| ClientIdentity::new("admin", format!("app{i:04}"), "orders"))
        .collect();
    let grant_all = |at: i64| {
        allocations(|| {
            who.iter()
                .all(|w| store.log_lease(w, DriverId(1), at, 600_000).is_ok())
        })
    };
    let (logged, first) = grant_all(0);
    assert!(logged, "a first grant failed");
    let (logged, renewed) = grant_all(1);
    assert!(logged, "a renewal failed");
    assert_eq!(store.lease_count().unwrap(), ROWS as i64 + 1);
    let (first, renewed) = (first as f64 / ROWS as f64, renewed as f64 / ROWS as f64);
    assert!(
        first <= PER_ROW_FIRST,
        "{first:.2} allocations per first grant"
    );
    assert!(
        renewed <= PER_ROW_RENEWED,
        "{renewed:.2} allocations per renewed grant"
    );
}

/// After a binding's first grant, renewing it leaves the table as it
/// was: one row, and not a byte more live heap. While every grant
/// appended a row, 1 000 renewals kept about 274 B each.
#[test]
fn renewals_of_a_binding_keep_its_one_row_and_no_heap() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let rig = rig(&record(1, DriverVersion::new(1, 0, 0), 4 << 10));
    let store = rig.srv.store();
    let who = ClientIdentity::new("admin", "app0001", "orders");
    store.log_lease(&who, DriverId(1), 0, 600_000).unwrap();
    store.log_lease(&who, DriverId(1), 1, 600_000).unwrap();
    let (renewed, _, _, live) = measured_live(|| {
        (2..1_002).all(|at| store.log_lease(&who, DriverId(1), at, 600_000).is_ok())
    });
    assert!(renewed, "a renewal failed");
    assert_eq!(store.lease_count().unwrap(), 1);
    assert!(live <= 0, "1000 renewals of one binding kept {live} B live");
}

#[test]
fn a_bootstrapped_rollout_client_holds_under_16_kib() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    const CLIENTS: usize = 500;
    let sim = FleetSim::build_rollout_batched(CLIENTS, 10 * 60_000, 64 << 10);
    let ((), _, _, live) = measured_live(|| sim.bootstrap_all());
    assert!(sim.clients().iter().all(|b| b.stats().downloads == 1));
    // Every client verified and loaded its own 64 KiB download; what it
    // keeps is its lease, its depot's index and the VM's loaded driver.
    // The package bytes themselves are held once per zone (a private
    // copy per client read about 68 KiB).
    let per_client = live / CLIENTS as i64;
    assert!(
        per_client <= 16 << 10,
        "{per_client} B live per bootstrapped client"
    );
}

/// What a self-driving client of the renew storm's shape holds once
/// bootstrapped, world included: its bootloader, three scheduler tasks,
/// its loaded namespace, its lease row and seat on the server. Each
/// driver image is held once per load and each task once in the
/// scheduler's table (inline tasks in a half-empty table, a second copy
/// of each image and a namespace list with room for four read 4 051 B).
#[test]
fn a_self_driving_client_holds_under_3_5_kib_once_bootstrapped() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    const CLIENTS: usize = 2_000;
    let (sim, _, _, live) = measured_live(|| {
        let sim = FleetSim::build_with_lifecycle(
            CLIENTS,
            10 * 60_000,
            false,
            0,
            LifecyclePolicy::driven(DEFAULT_POLL_EVERY),
        );
        sim.bootstrap_all();
        sim
    });
    assert!(sim.clients().iter().all(|b| b.stats().downloads == 1));
    let per_client = live / CLIENTS as i64;
    assert!(
        per_client <= 3_584,
        "{per_client} B live per bootstrapped client"
    );
}

/// The same client, held to what a client that only bootstraps and
/// renews uses: the fleet shares one bootloader configuration, and the
/// state of notify channels, mirror walks, activation reports and swap
/// windows is allocated only by the first of them. A private copy of the
/// configuration and all of that state inline read 3 397 B.
#[test]
fn a_self_driving_client_holds_under_2_800_bytes_once_bootstrapped() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    const CLIENTS: usize = 2_000;
    let (sim, _, _, live) = measured_live(|| {
        let sim = FleetSim::build_with_lifecycle(
            CLIENTS,
            10 * 60_000,
            false,
            0,
            LifecyclePolicy::driven(DEFAULT_POLL_EVERY),
        );
        sim.bootstrap_all();
        sim
    });
    assert!(sim.clients().iter().all(|b| b.stats().downloads == 1));
    let per_client = live / CLIENTS as i64;
    assert!(
        per_client <= 2_800,
        "{per_client} B live per bootstrapped client"
    );
}

/// The same client, held to one scheduler task: its poll, lease timer,
/// session sweep and swap tick are the jobs of one lifecycle task, so it
/// holds one task box, closure, name and table slot where it held three,
/// and the scheduler no sleep bookkeeping. Three tasks read 2 673 B.
#[test]
fn a_self_driving_client_holds_under_2_300_bytes_once_bootstrapped() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    const CLIENTS: usize = 2_000;
    let (sim, _, _, live) = measured_live(|| {
        let sim = FleetSim::build_with_lifecycle(
            CLIENTS,
            10 * 60_000,
            false,
            0,
            LifecyclePolicy::driven(DEFAULT_POLL_EVERY),
        );
        sim.bootstrap_all();
        sim
    });
    assert!(sim.clients().iter().all(|b| b.stats().downloads == 1));
    let per_client = live / CLIENTS as i64;
    assert!(
        per_client <= 2_300,
        "{per_client} B live per bootstrapped client"
    );
}

/// The renewal request every host of these two guards sends in full.
fn storm_renewal() -> DrvRequest {
    DrvRequest {
        kind: RequestKind::Renewal {
            current: DriverId(1),
        },
        ..DrvRequest::bootstrap("orders", "admin", "RDBC", "linux-x86_64")
    }
}

/// The server keeps each client address's last lone request for its
/// renewals by reference: a slot and the address per host (one client
/// per host here), and one copy of a request that many hosts share. Measured as what 10 000 lone requests
/// leave live beyond the same grants asked through batch frames (equal
/// seats, lease rows and memo answers; no reference kept): 48 B per host.
#[test]
fn the_reference_table_holds_under_96_bytes_per_host() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    const HOSTS: usize = 10_000;
    let hosts: Vec<Addr> = (0..HOSTS)
        .map(|i| Addr::new(format!("app{i:05}"), 1))
        .collect();
    let req = Arc::new(storm_renewal());
    let lone: Vec<Bytes> = hosts
        .iter()
        .map(|_| DrvMsg::Request(DrvRequest::clone(&req)).encode())
        .collect();
    let batched: Vec<Bytes> = hosts
        .iter()
        .map(|h| {
            let entries = vec![(h.host().to_string(), Arc::clone(&req))];
            DrvMsg::RenewBatch { entries }.encode()
        })
        .collect();
    let aggregator = vec![Addr::new("agg", 1); HOSTS];
    let live = |frames: &[Bytes], senders: &[Addr]| {
        let rig = rig(&record(1, DriverVersion::new(1, 0, 0), 4 << 10));
        // The first call pays the statement cache.
        rig.srv
            .call(&Addr::new("warm-up", 1), lone[0].clone())
            .unwrap();
        let ((), _, _, live) = measured_live(|| {
            for (frame, from) in frames.iter().zip(senders) {
                rig.srv.call(from, frame.clone()).unwrap();
            }
        });
        live
    };
    let with_refs = live(&lone, &hosts);
    let without = live(&batched, &aggregator);
    let per_host = (with_refs - without) / HOSTS as i64;
    assert!(
        (0..=96).contains(&per_host),
        "{per_host} B live per host kept for renewal by reference"
    );
}

/// A renewal by reference runs the whole grant path (memo answers, seat,
/// lease row, offer) but decodes 17 B instead of a request's every
/// string and writes a 19 B lease instead of an offer. The lease-log row
/// both write is most of either (551 B of 771 B in full, of 646 B by
/// reference), so the whole exchange by reference does not allocate
/// under half of one in full. What this checks is the rest: beside that
/// row, the renewal by reference allocates less than half of what the
/// same renewal sent in full does (96 B against 220 B).
#[test]
fn a_renewal_by_reference_allocates_under_half_of_one_in_full_beside_the_lease_row() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    const HOSTS: usize = 100;
    let rig = rig(&record(1, DriverVersion::new(1, 0, 0), 4 << 10));
    let hosts: Vec<Addr> = (0..HOSTS)
        .map(|i| Addr::new(format!("app{i:03}"), 1))
        .collect();
    let req = storm_renewal();
    let full = DrvMsg::Request(req.clone()).encode();
    let by_ref = DrvMsg::RenewRef {
        current: DriverId(1),
        token: req.context_digest(),
    }
    .encode();
    // Every host registers its request and takes its seat first.
    for h in &hosts {
        rig.srv.call(h, full.clone()).unwrap();
    }
    let renew_all = |frame: &Bytes| {
        let mut replies = Vec::with_capacity(HOSTS);
        let ((), bytes, _) = measured(|| {
            for h in &hosts {
                replies.push(rig.srv.call(h, frame.clone()).unwrap());
            }
        });
        for reply in replies {
            let renewed = DrvMsg::decode(reply);
            assert!(
                matches!(&renewed, Ok(DrvMsg::Offer(o)) if o.same_driver)
                    || matches!(renewed, Ok(DrvMsg::Renewed(_))),
            );
        }
        bytes
    };
    let in_full = renew_all(&full);
    let referenced = renew_all(&by_ref);
    let who: Vec<ClientIdentity> = hosts
        .iter()
        .map(|h| ClientIdentity::new("admin", h.host(), "orders"))
        .collect();
    let ((), rows, _) = measured(|| {
        for w in &who {
            rig.srv
                .store()
                .log_lease(w, DriverId(1), 0, 600_000)
                .unwrap();
        }
    });
    assert!(
        2 * referenced.saturating_sub(rows) < in_full.saturating_sub(rows),
        "by reference {referenced} B, in full {in_full} B, lease rows {rows} B \
         for {HOSTS} renewals"
    );
}
