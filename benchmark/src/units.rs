//! The unit-cost rig: what one call into each layer costs, measured from
//! outside through public functions on hand-built targets.
//!
//! Frame-shaped inputs (codec round trips, the server replay) are the
//! exchanges the taps captured in the traced rounds, so a workload reports
//! the cost of the frames it really sends and 0 for those it never sends.
//! Everything else runs on inputs built from the seed. Each figure is the
//! fastest of [`BATCHES`] batches — the same "least disturbed observation"
//! rule as the end-to-end estimator.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use driverkit::{legacy_driver, Connection, ConnectionPool, DriverVm};
use drivolution_core::chunk::{self, manifest_and_chunks, ChunkManifest};
use drivolution_core::pack::unpack_driver;
use drivolution_core::{
    fnv1a64, transfer, Certificate, ChannelTrust, ChunkingParams, DriverId, DriverVersion, DrvMsg,
    DrvResult, TransferMethod,
};
use drivolution_depot::{ContentIndex, DriverDepot};
use drivolution_server::{
    DriverStore, DrivolutionServer, EmbeddedExec, LicenseManager, ServerConfig, SqlExec,
};
use minidb::{MiniDb, Params, QueryResult};
use netsim::{Addr, FnService, Network, Service, TaskControl};

use crate::run::{metric, Metric};
use crate::trace::{self, Exchange, Tracer};
use crate::workloads::{seeded_record, Rig};

const BATCHES: usize = 20;

/// Fastest of [`BATCHES`] samples; `sample` returns ns.
fn best(mut sample: impl FnMut() -> f64) -> f64 {
    (0..BATCHES).map(|_| sample()).fold(f64::INFINITY, f64::min)
}

/// ns per call of `f`, fastest of [`BATCHES`] batches of `iters` calls.
fn best_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    best(|| {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    })
}

/// ns of one call of `f`.
fn once_ns<R>(f: impl FnOnce() -> R) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_nanos() as f64
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 * 1e3 / ns
}

/// The unit costs, plus the three the budget shares are built from.
pub struct Units {
    pub metrics: Vec<Metric>,
    pub request_ns_1: f64,
    pub request_ns_10k: f64,
    pub task_ns: f64,
}

pub fn measure(tracer: &Tracer, seed: u64) -> Units {
    let mut m = Vec::new();
    bulk_path(&mut m, seed);
    codecs(&mut m, tracer);
    server_replay(&mut m, tracer, seed);
    licenses(&mut m);
    let (request_ns_1, request_ns_10k) = (request_ns(1), request_ns(10_000));
    m.push(metric("netsim.net.request_ns_1", "ns", request_ns_1));
    m.push(metric("netsim.net.request_ns_10k", "ns", request_ns_10k));
    let task_ns = task_ns();
    m.push(metric("netsim.sched.task_ns", "ns", task_ns));
    delta_path(&mut m, seed);
    database(&mut m, seed);
    Units {
        metrics: m,
        request_ns_1,
        request_ns_10k,
        task_ns,
    }
}

const MIB: usize = 1 << 20;

/// The layers a cold 1 MiB fetch crosses, each on the whole package.
fn bulk_path(m: &mut Vec<Metric>, seed: u64) {
    let (record, _) = seeded_record(1, DriverVersion::new(1, 0, 0), MIB, seed);
    let pkg = record.binary.clone();
    let params = ChunkingParams::default();
    let rate = |ns: f64| mb_per_s(pkg.len(), ns);

    let ns = best_ns(1, || {
        black_box(fnv1a64(&pkg));
    });
    m.push(metric("core.digest.fnv_mb_per_s", "MB/s", rate(ns)));

    let ns = best_ns(1, || {
        black_box(manifest_and_chunks(&pkg, &params));
    });
    m.push(metric("core.chunk.cut_mb_per_s", "MB/s", rate(ns)));

    let manifest = ChunkManifest::of_with(&pkg, &params);
    let ns = best_ns(1, || manifest.verify(&pkg).expect("own manifest verifies"));
    m.push(metric("core.chunk.verify_mb_per_s", "MB/s", rate(ns)));

    let ns = best_ns(1, || {
        black_box(unpack_driver(record.format, pkg.clone()).expect("package unpacks"));
    });
    m.push(metric("core.pack.unpack_mb_per_s", "MB/s", rate(ns)));

    let cert = Certificate::issue("db1", 1);
    let mut trust = ChannelTrust::new();
    trust.pin(&cert);
    let sealed = transfer::wrap(TransferMethod::Sealed, &pkg, Some(&cert)).expect("seals");
    let ns = best_ns(1, || {
        black_box(
            transfer::unwrap(TransferMethod::Sealed, sealed.clone(), &trust).expect("unseals"),
        );
    });
    m.push(metric("core.transfer.unwrap_mb_per_s", "MB/s", rate(ns)));

    let ns = best_ns(1, || {
        black_box(DriverDepot::in_memory().insert("orders", pkg.clone()));
    });
    m.push(metric("depot.depot.insert_mb_per_s", "MB/s", rate(ns)));

    let depot = DriverDepot::in_memory();
    depot.insert("orders", pkg.clone());
    let ns = best_ns(5, || {
        black_box(depot.have_summary("orders"));
    });
    m.push(metric("depot.depot.have_summary_us", "us", ns / 1e3));

    let vm = DriverVm::new(Network::new(), Addr::new("app", 1));
    let ns = best_ns(1, || {
        black_box(vm.load(record.format, pkg.clone()).expect("image loads"));
    });
    m.push(metric("driverkit.vm.load_us", "us", ns / 1e3));

    let ns = best(|| {
        let rig = Rig::bare(seed);
        once_ns(|| rig.server.install_driver(&record).expect("installs"))
    });
    m.push(metric("server.install_ms", "ms", ns / 1e6));
}

/// Encode + decode of request and reply: the codec work of one round trip.
fn roundtrip_ns(x: &Exchange) -> f64 {
    let recode = |frame: &Bytes| {
        let msg = DrvMsg::decode(frame.clone()).expect("captured frame decodes");
        black_box(msg.encode());
    };
    best_ns(50, || {
        recode(&x.request);
        recode(&x.reply);
    })
}

/// The workload's first lease exchange: a renewal, else a bootstrap request.
fn lease_exchange(tracer: &Tracer) -> Option<Exchange> {
    (tracer.exchange(trace::SRV_RENEW)).or_else(|| tracer.exchange(trace::SRV_REQUEST))
}

fn codecs(m: &mut Vec<Metric>, tracer: &Tracer) {
    let small = lease_exchange(tracer).map_or(0.0, |x| roundtrip_ns(&x));
    m.push(metric("core.proto.small_roundtrip_ns", "ns", small));

    let per_entry = tracer.exchange(trace::SRV_RENEW_BATCH).map_or(0.0, |x| {
        let entries = match DrvMsg::decode(x.request.clone()) {
            Ok(DrvMsg::RenewBatch { entries }) => entries.len(),
            _ => 0,
        };
        roundtrip_ns(&x) / entries.max(1) as f64
    });
    m.push(metric(
        "core.proto.batch_roundtrip_ns_per_entry",
        "ns",
        per_entry,
    ));

    // The biggest frame the workload moves: a whole file, else a chunk set.
    let bulk = (tracer.exchange(trace::SRV_FILE_REQUEST))
        .or_else(|| tracer.exchange(trace::SRV_CHUNK_REQUEST))
        .map(|x| x.reply);
    let (encode, decode) = bulk.map_or((0.0, 0.0), |frame| {
        let msg = DrvMsg::decode(frame.clone()).expect("captured frame decodes");
        let encode = best_ns(1, || {
            black_box(msg.encode());
        });
        // Decoding shares the frame's buffer; a call is tens of ns.
        let decode = best_ns(100, || {
            black_box(DrvMsg::decode(frame.clone()).expect("captured frame decodes"));
        });
        (mb_per_s(frame.len(), encode), mb_per_s(frame.len(), decode))
    });
    m.push(metric("core.proto.bulk_encode_mb_per_s", "MB/s", encode));
    m.push(metric("core.proto.bulk_decode_mb_per_s", "MB/s", decode));
}

/// An [`SqlExec`] that times what the server's store spends in SQL.
struct TimingExec {
    inner: EmbeddedExec,
    spent: Arc<(AtomicU64, AtomicU64)>,
}

impl SqlExec for TimingExec {
    fn exec(&self, sql: &str, params: &Params) -> DrvResult<QueryResult> {
        let t0 = Instant::now();
        let r = self.inner.exec(sql, params);
        self.spent
            .0
            .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.spent.1.fetch_add(1, Relaxed);
        r
    }
}

/// Replays the workload's first lease request against a hand-built server
/// whose store runs over [`TimingExec`].
fn server_replay(m: &mut Vec<Metric>, tracer: &Tracer, seed: u64) {
    const REPLAYS: u64 = 50;
    let x = lease_exchange(tracer);
    let request = x
        .as_ref()
        .and_then(|x| match DrvMsg::decode(x.request.clone()) {
            Ok(DrvMsg::Request(r)) => Some(r),
            _ => None,
        });
    let (match_us, sql_per_request) = match (x, request) {
        (Some(x), Some(request)) => {
            let net = Network::new();
            let db = Arc::new(MiniDb::with_clock(request.database, net.clock().clone()));
            let spent = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
            let store = DriverStore::new(Box::new(TimingExec {
                inner: EmbeddedExec::new(db),
                spent: spent.clone(),
            }));
            store.install_schema().expect("schema installs");
            let server =
                DrivolutionServer::new("db1", store, net.clock().clone(), ServerConfig::default());
            let (record, _) = seeded_record(1, DriverVersion::new(1, 0, 0), 4096, seed);
            server.install_driver(&record).expect("installs");
            let ns = best(|| {
                spent.0.store(0, Relaxed);
                for _ in 0..REPLAYS {
                    black_box(
                        server
                            .call(&x.from, x.request.clone())
                            .expect("server answers"),
                    );
                }
                spent.0.load(Relaxed) as f64 / REPLAYS as f64
            });
            spent.1.store(0, Relaxed);
            black_box(
                server
                    .call(&x.from, x.request.clone())
                    .expect("server answers"),
            );
            (ns / 1e3, spent.1.load(Relaxed) as f64)
        }
        _ => (0.0, 0.0),
    };
    m.push(metric("server.store.match_us", "us", match_us));
    m.push(metric(
        "server.store.sql_per_request",
        "count",
        sql_per_request,
    ));
}

/// In-place renewals against a fully seated table of 10 000 holders.
fn licenses(m: &mut Vec<Metric>) {
    const HOLDERS: usize = 10_000;
    let hosts: Vec<String> = (0..HOLDERS).map(|i| format!("app{i:04}")).collect();
    for (name, shards) in [
        ("server.license.acquire_ns_1shard", 1),
        ("server.license.acquire_ns_8shard", 8),
    ] {
        let table = LicenseManager::with_shards(shards);
        table.set_limit(DriverId(1), HOLDERS);
        let renew_all = |now_ms: u64| {
            for h in &hosts {
                table
                    .acquire(DriverId(1), "admin", h, 600_000, now_ms)
                    .expect("a seat per holder");
            }
        };
        renew_all(0);
        let mut now_ms = 0;
        let ns = best_ns(1, || {
            now_ms += 1000;
            renew_all(now_ms);
        });
        m.push(metric(name, "ns", ns / HOLDERS as f64));
    }
}

/// One request to an echo service on a network of `hosts` bound addresses,
/// across a zone boundary like the workloads' requests.
fn request_ns(hosts: usize) -> f64 {
    let net = Network::new();
    let echo: Arc<dyn Service> = Arc::new(FnService::new(|_from, req| Ok(req)));
    for i in 0..hosts {
        net.bind_arc(Addr::new(format!("host{i:05}"), 7), echo.clone())
            .expect("fresh address");
    }
    let (from, to) = (
        Addr::new("client", 1),
        Addr::new(format!("host{:05}", hosts / 2), 7),
    );
    net.with_topology(|t| {
        t.set_default_latency(5, 5);
        t.place(from.host(), "za");
        t.place(to.host(), "zb");
    });
    let payload = Bytes::from(vec![7u8; 64]);
    best_ns(500, || {
        black_box(
            net.request(&from, &to, payload.clone())
                .expect("echo answers"),
        );
    })
}

/// One firing of an empty periodic task among 20 000.
fn task_ns() -> f64 {
    const TASKS: u64 = 20_000;
    let net = Network::new();
    let handles: Vec<_> = (0..TASKS)
        .map(|i| {
            net.scheduler().every(
                Duration::from_secs(1),
                Duration::ZERO,
                format!("t{i}"),
                || Ok(TaskControl::Continue),
            )
        })
        .collect();
    let ns = best(|| {
        let target = net.clock().now_ms() + 1000;
        let t0 = Instant::now();
        let fired = net.run_until(target);
        t0.elapsed().as_nanos() as f64 / fired.max(1) as f64
    });
    drop(handles);
    ns
}

const ROLLOUT_PACKAGE: usize = 64 * 1024;

/// The delta path of a v1→v2 upgrade between two 64 KiB packages that
/// share their code bytes.
fn delta_path(m: &mut Vec<Metric>, seed: u64) {
    let params = ChunkingParams::default();
    let v1 = seeded_record(1, DriverVersion::new(1, 0, 0), ROLLOUT_PACKAGE, seed)
        .0
        .binary;
    let v2 = seeded_record(2, DriverVersion::new(2, 0, 0), ROLLOUT_PACKAGE, seed)
        .0
        .binary;
    let have = ChunkManifest::of_with(&v1, &params).chunks;
    let (manifest2, chunks2) = manifest_and_chunks(&v2, &params);

    let miss = best(|| {
        let index = ContentIndex::new();
        let digest = index.insert(v2.clone(), &params);
        once_ns(|| index.delta_plan(digest, &params, &have))
    });
    m.push(metric("depot.index.delta_plan_miss_us", "us", miss / 1e3));

    let index = ContentIndex::new();
    let digest = index.insert(v2.clone(), &params);
    black_box(index.delta_plan(digest, &params, &have));
    let hit = best_ns(50, || {
        black_box(index.delta_plan(digest, &params, &have));
    });
    m.push(metric("depot.index.delta_plan_hit_us", "us", hit / 1e3));
    let ns = best_ns(50, || {
        black_box(index.manifest_for(digest, &params));
    });
    m.push(metric("depot.index.manifest_for_us", "us", ns / 1e3));

    let depot = DriverDepot::in_memory();
    depot.insert("fleetdb", v1);
    let ns = best_ns(20, || {
        black_box(depot.partition_chunks(&manifest2));
    });
    m.push(metric("depot.depot.partition_us", "us", ns / 1e3));

    let (_, need) = depot.partition_chunks(&manifest2);
    let all: HashMap<u64, Bytes> = chunks2.into_iter().collect();
    let fetched: HashMap<u64, Bytes> = need
        .iter()
        .filter_map(|d| all.get(d).map(|c| (*d, c.clone())))
        .collect();
    let ns = best_ns(5, || {
        black_box(depot.assemble(&manifest2, &fetched).expect("assembles"));
    });
    m.push(metric(
        "depot.depot.assemble_mb_per_s",
        "MB/s",
        mb_per_s(v2.len(), ns),
    ));
    let ns = best_ns(5, || {
        black_box(chunk::assemble(&manifest2, &all).expect("assembles"));
    });
    m.push(metric(
        "core.chunk.assemble_mb_per_s",
        "MB/s",
        mb_per_s(v2.len(), ns),
    ));
}

const SELECT: &str = "SELECT qty FROM orders WHERE id = 500";

/// The steady load's transaction (`fleet::workload::run_txn`'s statements)
/// straight against the engine.
fn txn_us(rows: i64) -> f64 {
    let db = MiniDb::new("bench");
    let mut s = db.admin_session();
    let mut exec = |sql: &str| {
        black_box(db.exec(&mut s, sql).expect("statement runs"));
    };
    exec("CREATE TABLE orders (id INTEGER PRIMARY KEY, qty INTEGER, status VARCHAR)");
    for id in 0..rows {
        exec(&format!(
            "INSERT INTO orders VALUES ({id}, {}, 'new')",
            id % 7 + 1
        ));
    }
    let mut id = rows;
    best_ns(20, || {
        id += 1;
        exec("BEGIN");
        exec(&format!(
            "INSERT INTO orders VALUES ({id}, {}, 'new')",
            id % 7 + 1
        ));
        exec(&format!(
            "UPDATE orders SET status = 'shipped' WHERE id = {id}"
        ));
        exec(&format!("SELECT qty FROM orders WHERE id = {id}"));
        exec("COMMIT");
    }) / 1e3
}

fn database(m: &mut Vec<Metric>, seed: u64) {
    let ns = best_ns(500, || {
        black_box(
            minidb::sql::parse("INSERT INTO orders VALUES (30000017, 4, 'new')").expect("parses"),
        );
    });
    m.push(metric("minidb.sql.parse_ns", "ns", ns));
    m.push(metric("minidb.exec.txn_us_1k", "us", txn_us(1_000)));
    m.push(metric("minidb.exec.txn_us_10k", "us", txn_us(10_000)));

    // One rig serves the engine, wire, pool and managed-connection costs:
    // the same SELECT at each distance from the table.
    let (record, _) = seeded_record(1, DriverVersion::new(1, 0, 0), 4096, seed);
    let rig = Rig::build(seed, &record);
    let props = driverkit::ConnectProps::user("admin", "admin");
    let driver = legacy_driver(&rig.net, &Addr::new("raw", 1), 1).expect("legacy driver");
    let mut raw = driver.connect(&rig.url, &props).expect("raw connection");
    raw.execute("CREATE TABLE orders (id INTEGER PRIMARY KEY, qty INTEGER, status VARCHAR)")
        .expect("table");
    for id in 0..1000 {
        raw.execute(&format!(
            "INSERT INTO orders VALUES ({id}, {}, 'new')",
            id % 7 + 1
        ))
        .expect("row");
    }

    let db = rig.db_server.db().clone();
    let mut session = db.admin_session();
    let engine = best_ns(100, || {
        black_box(db.exec(&mut session, SELECT).expect("selects"));
    });
    m.push(metric("minidb.exec.select_us", "us", engine / 1e3));

    let wire = best_ns(100, || {
        black_box(raw.execute(SELECT).expect("selects"));
    });
    m.push(metric("minidb.wire.roundtrip_us", "us", wire / 1e3));

    let pool = ConnectionPool::new(driver, rig.url.clone(), props.clone(), 4);
    drop(pool.checkout().expect("first checkout connects"));
    let ns = best_ns(500, || drop(pool.checkout().expect("idle connection")));
    m.push(metric("driverkit.pool.checkout_ns", "ns", ns));

    let client = rig.client("managed");
    let mut managed = client
        .connect(&rig.url, &props)
        .expect("managed connection");
    let ns = best_ns(100, || {
        black_box(managed.execute(SELECT).expect("selects"));
    });
    m.push(metric("bootloader.managed_overhead_ns", "ns", ns - wire));
}
