//! The server keeps its Sample code 1 and Sample code 2 answers until the
//! tables they read are written or the clock crosses a rule's date window
//! (`DESIGN.md` §3, "grant lookup"). That must never change an answer: a
//! server whose executor reports minidb's write stamps and a twin whose
//! executor hides them (and so asks the catalog on every frame) are driven
//! through the same seeded mix of requests, batches, plain-SQL writes to
//! `drivers` / `driver_permission` made behind the server's back, rules
//! with date windows and clock advances, and must answer alike.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use drivolution::core::proto::{DrvMsg, DrvRequest, RequestKind};
use drivolution::core::DrvResult;
use drivolution::minidb::{Params, QueryResult};
use drivolution::prelude::*;
use drivolution::server::{DriverStore, EmbeddedExec, SqlExec};

/// An embedded executor that counts its statements and reports the
/// engine's stamps only when `stamps`.
struct Counted {
    inner: EmbeddedExec,
    statements: Arc<AtomicU64>,
    stamps: bool,
}

impl SqlExec for Counted {
    fn exec(&self, sql: &str, params: &Params) -> DrvResult<QueryResult> {
        self.statements.fetch_add(1, Relaxed);
        self.inner.exec(sql, params)
    }

    fn stamp(&self, table: &str) -> Option<(u64, i64)> {
        self.inner.stamp(table).filter(|_| self.stamps)
    }
}

struct Twin {
    db: Arc<MiniDb>,
    srv: DrivolutionServer,
    statements: Arc<AtomicU64>,
}

fn twin(clock: &Clock, stamps: bool) -> Twin {
    let db = Arc::new(MiniDb::with_clock("orders", clock.clone()));
    let statements = Arc::new(AtomicU64::new(0));
    let store = DriverStore::new(Box::new(Counted {
        inner: EmbeddedExec::new(db.clone()),
        statements: statements.clone(),
        stamps,
    }));
    store.install_schema().unwrap();
    let srv = DrivolutionServer::new("drv1", store, clock.clone(), ServerConfig::default());
    srv.licenses().set_limit(DriverId(1), 4);
    Twin {
        db,
        srv,
        statements,
    }
}

/// xorshift64: the test's one source of choices.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len() as u64) as usize]
    }
}

/// One plain-SQL write, as a DBA would type it: the statement and its
/// parameters.
fn plain_write(rng: &mut Rng, now: i64) -> (String, Params) {
    let mut p = Params::new();
    let id = 1 + rng.below(5) as i64;
    p.insert("id".into(), Value::Integer(id));
    let sql = match rng.below(6) {
        0 => {
            let platform = match rng.below(3) {
                0 => Value::Null,
                1 => Value::str("linux-%"),
                _ => Value::str("windows-%"),
            };
            p.insert("plat".into(), platform);
            p.insert("major".into(), Value::Integer(id));
            p.insert("code".into(), Value::Blob(vec![id as u8; 64].into()));
            p.insert("fmt".into(), Value::str(BinaryFormat::Djar.as_str()));
            "INSERT INTO information_schema.drivers VALUES \
             ($id, 'RDBC', NULL, NULL, $plat, $major, 0, 0, $code, $fmt)"
        }
        1 => "DELETE FROM information_schema.drivers WHERE driver_id = $id",
        2 | 3 => {
            let user = match rng.below(3) {
                0 => Value::Null,
                1 => Value::str("app%"),
                _ => Value::str("dba%"),
            };
            // A window around now, one that opens later, one long shut,
            // or none.
            let (start, end) = match rng.below(4) {
                0 => (Value::Null, Value::Null),
                1 => (
                    Value::Timestamp(now - 100),
                    Value::Timestamp(now + rng.below(400) as i64),
                ),
                2 => (
                    Value::Timestamp(now + rng.below(300) as i64),
                    Value::Timestamp(now + 300 + rng.below(300) as i64),
                ),
                _ => (Value::Timestamp(0), Value::Timestamp(now - 1)),
            };
            p.insert("user".into(), user);
            p.insert("start".into(), start);
            p.insert("end".into(), end);
            let policy = [
                RenewPolicy::Renew,
                RenewPolicy::Upgrade,
                RenewPolicy::Revoke,
            ][rng.below(3) as usize];
            p.insert("renew".into(), Value::Integer(i64::from(policy.code())));
            "INSERT INTO information_schema.driver_permission VALUES \
             ($user, NULL, NULL, $id, NULL, $start, $end, 60000, $renew, NULL, NULL)"
        }
        4 => "DELETE FROM information_schema.driver_permission WHERE driver_id = $id",
        _ => {
            p.insert("end".into(), Value::Timestamp(now + rng.below(200) as i64));
            "UPDATE information_schema.driver_permission SET end_date = $end \
             WHERE driver_id = $id"
        }
    };
    (sql.to_string(), p)
}

/// One request from one of a few identities.
fn request(rng: &mut Rng) -> (Addr, DrvRequest) {
    let host = rng.pick(&["h1", "h2", "h3"]);
    let user = rng.pick(&["app1", "app2", "dba1"]);
    let platform = rng.pick(&["linux-x86_64", "windows-x64"]);
    let mut req = DrvRequest::bootstrap("orders", user, "RDBC", platform);
    if rng.below(4) == 0 {
        req.preferred_version = Some(DriverVersion::new(1 + rng.below(5) as i32, 0, 0));
    }
    if rng.below(3) != 0 {
        req.kind = RequestKind::Renewal {
            current: DriverId(1 + rng.below(5) as i64),
        };
    }
    (Addr::new(host, 9), req)
}

/// Seat holders per driver, then the lease log's rows.
type Ledger = (Vec<Vec<(String, String)>>, Vec<Vec<Value>>);

/// Every observable outcome of one twin so far: seats and the lease log.
fn ledger(t: &Twin) -> Ledger {
    let seats = (1..=5)
        .map(|id| t.srv.licenses().holders(DriverId(id)))
        .collect();
    let leases =
        t.db.exec(
            &mut t.db.admin_session(),
            "SELECT * FROM information_schema.leases",
        )
        .unwrap()
        .rows()
        .unwrap()
        .rows;
    (seats, leases)
}

#[test]
fn a_stamped_server_answers_as_a_twin_that_asks_every_frame() {
    for seed in 1..=4u64 {
        let clock = Clock::simulated();
        let (stamped, framed) = (twin(&clock, true), twin(&clock, false));
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let (mut writes, mut answered) = (0, 0);
        for step in 0..250 {
            let now = clock.now_ms() as i64;
            match rng.below(10) {
                0..=1 => {
                    let (sql, params) = plain_write(&mut rng, now);
                    let run = |t: &Twin| {
                        t.db.execute(&mut t.db.admin_session(), &sql, &params)
                            .map(|_| ())
                            .map_err(|e| e.to_string())
                    };
                    let outcome = run(&stamped);
                    assert_eq!(outcome, run(&framed), "seed {seed} step {step}: {sql}");
                    writes += u32::from(outcome.is_ok());
                }
                2..=3 => {
                    clock.advance_ms(rng.below(250));
                }
                4 => {
                    let entries: Vec<(String, Arc<DrvRequest>)> = (0..1 + rng.below(4))
                        .map(|_| {
                            let (from, req) = request(&mut rng);
                            (from.host().to_string(), Arc::new(req))
                        })
                        .collect();
                    let msg = DrvMsg::RenewBatch { entries };
                    let from = Addr::new("aggregator", 9);
                    let reply = stamped.srv.handle(&from, msg.clone());
                    assert_eq!(
                        reply,
                        framed.srv.handle(&from, msg),
                        "seed {seed} step {step}"
                    );
                    answered += 1;
                }
                _ => {
                    let (from, req) = request(&mut rng);
                    let msg = DrvMsg::Request(req);
                    let reply = stamped.srv.handle(&from, msg.clone());
                    assert_eq!(
                        reply,
                        framed.srv.handle(&from, msg),
                        "seed {seed} step {step}"
                    );
                    answered += 1;
                }
            }
            assert_eq!(ledger(&stamped), ledger(&framed), "seed {seed} step {step}");
        }
        assert_eq!(stamped.srv.stats(), framed.srv.stats(), "seed {seed}");
        // The mix did what it claims: both tables were written, and
        // leases were granted and denied.
        let stats = stamped.srv.stats();
        assert!(
            writes >= 20 && answered >= 100,
            "seed {seed}: {writes} {answered}"
        );
        assert!(
            stats.offers > 10 && stats.errors > 10,
            "seed {seed}: {stats:?}"
        );
        // And the stamped server skipped statements its twin ran.
        let (ran, twin_ran) = (
            stamped.statements.load(Relaxed),
            framed.statements.load(Relaxed),
        );
        assert!(ran < twin_ran, "seed {seed}: {ran} vs {twin_ran}");
    }
}
