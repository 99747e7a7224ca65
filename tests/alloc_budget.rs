//! Allocation budget of the bulk path: a cold sealed bootstrap and a
//! chunked delta may allocate a small multiple of the bytes they move,
//! and nothing larger than the package itself. drvbench reports the same
//! quantity as `mem.copy_factor`, but only when someone runs it; this is
//! the deterministic guard.
//!
//! Own test binary: the counting allocator is process-wide.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use drivolution::core::chunk::{manifest_and_chunks, ChunkSet, ChunkingParams};
use drivolution::core::pack::pack_driver_padded;
use drivolution::core::proto::{DrvMsg, DrvRequest, RequestKind};
use drivolution::core::transfer;
use drivolution::netsim::{FnService, Service};
use drivolution::prelude::*;
use drivolution::server::LicenseManager;

mod frames;

/// The system allocator plus, while `ON` on the allocating thread, the
/// bytes requested and the largest single request. A `realloc` counts as
/// one allocation of the new size: that is what it may copy. Counting
/// only the measuring thread keeps the harness's own bookkeeping (a
/// finished test reported while another measures) out of the figures.
struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
}
static BYTES: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if ON.with(Cell::get) {
        BYTES.fetch_add(size as u64, Relaxed);
        LARGEST.fetch_max(size as u64, Relaxed);
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
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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
    BYTES.store(0, Relaxed);
    LARGEST.store(0, Relaxed);
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    (out, BYTES.load(Relaxed), LARGEST.load(Relaxed))
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
/// sealed 1 MiB bootstrap into an empty depot.
fn cold_sealed_bootstrap() -> (usize, u64, u64) {
    let v1 = record(1, DriverVersion::new(1, 0, 0), 1 << 20);
    let rig = rig(&v1);
    // The first bootstrap pays the process's one-off set-up; the second
    // is what every later one costs.
    let (warm_up, _) = client(&rig, "app1");
    connect(&rig, &warm_up);
    let (boot, depot) = client(&rig, "app2");
    let ((), bytes, largest) = measured(|| connect(&rig, &boot));
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
    // One package-sized buffer for the whole hop: the FILE_DATA frame is
    // built around the envelope it carries, and the client deciphers
    // that same buffer in place and keeps it. A frame copied around a
    // finished envelope reads 2.04.
    assert_budget("cold sealed bootstrap", package, 1.2, bytes, largest);
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
/// answer (both driver rows) is read once per frame and shared; the
/// entry's own statements (Sample code 2's count, the lease INSERT) and
/// its offer are what is left: 2 735 B. Reading the rows once per entry
/// cost 7 095 B.
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
                (format!("app{i}"), req)
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
    assert!(replies.iter().all(|r| matches!(r, Ok(o) if o.same_driver)));
    let per_entry = bytes / ENTRIES as u64;
    assert!(
        per_entry <= 3 << 10,
        "{per_entry} B allocated per entry, budget 3 KiB"
    );
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
