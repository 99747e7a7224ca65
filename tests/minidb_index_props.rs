//! Property tests pinning the primary-key index invariant: the index
//! decides how many rows a statement looks at, never what it returns.
//!
//! Every generated statement runs three times in one database — on a
//! keyed table with its predicate as written (`pinned`: the access path
//! may use the index), on a second keyed table with the same predicate
//! spelled so that it cannot pin the key (`scanned`: `id + 0 = k`), and
//! on a twin declared without `PRIMARY KEY` (`twin`: no index exists) —
//! and the three outcomes, errors included, must agree at every step, as
//! must the tables' contents afterwards. The twin enforces no
//! uniqueness, so a statement the keyed tables reject as a duplicate is
//! checked against the twin's contents and not run on it.
//!
//! Plus three plain tests: `REFERENCES` checks go through the index and
//! still reject what they rejected, the load's transaction examines as
//! many rows at 32 000 rows as at 1 000, and one-shot literal statements
//! neither enter nor flush the parse cache.

use std::sync::Arc;

use proptest::prelude::*;

use drivolution::driverkit::{legacy_driver, ConnectProps, DbUrl};
use drivolution::fleet::workload;
use drivolution::minidb::{wire::DbServer, DbError, MiniDb, Params, QueryResult, Session, Value};
use drivolution::netsim::{Addr, Network};

/// Keys come from a domain this small so that sequences collide.
const KEYS: i64 = 8;

const TABLES: [&str; 3] = ["pinned", "scanned", "twin"];

/// The two key types under test and how each spells a key.
#[derive(Clone, Copy, Debug)]
enum KeyType {
    Integer,
    Varchar,
}

impl KeyType {
    fn sql_type(self) -> &'static str {
        match self {
            KeyType::Integer => "INTEGER",
            KeyType::Varchar => "VARCHAR",
        }
    }

    /// Key `k` as a SQL literal.
    fn literal(self, k: i64) -> String {
        match self {
            KeyType::Integer => k.to_string(),
            KeyType::Varchar => format!("'k{k}'"),
        }
    }

    /// Key `k` as a bound value; `width` picks the numeric flavour.
    fn value(self, k: i64, width: u8) -> Value {
        match (self, width % 3) {
            (KeyType::Varchar, _) => Value::str(format!("k{k}")),
            (KeyType::Integer, 0) => Value::Integer(k),
            (KeyType::Integer, 1) => Value::BigInt(k),
            (KeyType::Integer, _) => Value::Timestamp(k),
        }
    }

    /// A literal of the *other* family: comparing it with the key is
    /// NULL on every row.
    fn foreign_literal(self, k: i64) -> String {
        match self {
            KeyType::Integer => format!("'k{k}'"),
            KeyType::Varchar => k.to_string(),
        }
    }

    /// The key column spelled so that `pinned_key` cannot recognise it.
    fn opaque_column(self) -> &'static str {
        match self {
            KeyType::Integer => "id + 0",
            KeyType::Varchar => "coalesce(id)",
        }
    }
}

/// A predicate over the key, with `{id}` standing for the key column.
#[derive(Clone, Debug)]
enum Probe {
    /// `{id} = k`
    Literal(i64),
    /// `k = {id}`
    Flipped(i64),
    /// `{id} = $k`, bound to an INTEGER, BIGINT or TIMESTAMP (or VARCHAR).
    Param(i64, u8),
    /// `{id} = $k`, unbound: an error on every row, none on an empty table.
    Unbound,
    /// `{id} = NULL`
    Null,
    /// `{id} = $k` bound to NULL.
    NullParam,
    /// A probe of the other type family.
    Foreign(i64),
    /// `k = {id} AND qty > 3`
    AndAfter(i64),
    /// `qty > 3 AND {id} = k`: pinned behind a conjunct that cannot fail.
    AndBefore(i64),
    /// `qty / 0 > 1 AND {id} = k`: the first conjunct fails on every row,
    /// so the key must not be pinned behind it.
    FailingBefore(i64),
    /// `{id} = k AND qty / 0 > 1`: fails only where the key matches.
    FailingAfter(i64),
    /// `{id} = <other family> AND qty / 0 > 1`: the comparison is NULL,
    /// not FALSE, so the second conjunct runs — and fails — on every row.
    UndecidedThenFailing(i64),
    /// `{id} = k OR qty > 5`: not a conjunct, pins nothing.
    Or(i64),
    /// `{id} = j AND {id} = k`
    Both(i64, i64),
}

impl Probe {
    fn render(&self, ty: KeyType, column: &str) -> (String, Params) {
        let mut params = Params::new();
        let lit = |k: &i64| ty.literal(*k);
        let sql = match self {
            Probe::Literal(k) => format!("{column} = {}", lit(k)),
            Probe::Flipped(k) => format!("{} = {column}", lit(k)),
            Probe::Param(k, width) => {
                params.insert("k".into(), ty.value(*k, *width));
                format!("{column} = $k")
            }
            Probe::Unbound => format!("{column} = $k"),
            Probe::Null => format!("{column} = NULL"),
            Probe::NullParam => {
                params.insert("k".into(), Value::Null);
                format!("$k = {column}")
            }
            Probe::Foreign(k) => format!("{column} = {}", ty.foreign_literal(*k)),
            Probe::AndAfter(k) => format!("{} = {column} AND qty > 3", lit(k)),
            Probe::AndBefore(k) => format!("qty > 3 AND {column} = {}", lit(k)),
            Probe::FailingBefore(k) => format!("qty / 0 > 1 AND {column} = {}", lit(k)),
            Probe::FailingAfter(k) => format!("{column} = {} AND qty / 0 > 1", lit(k)),
            Probe::UndecidedThenFailing(k) => {
                format!("{column} = {} AND qty / 0 > 1", ty.foreign_literal(*k))
            }
            Probe::Or(k) => format!("{column} = {} OR qty > 5", lit(k)),
            Probe::Both(j, k) => format!("{column} = {} AND {column} = {}", lit(j), lit(k)),
        };
        (sql, params)
    }
}

fn arb_probe() -> impl Strategy<Value = Probe> {
    let key = || 0..KEYS;
    prop_oneof![
        key().prop_map(Probe::Literal),
        key().prop_map(Probe::Flipped),
        (key(), 0..3u8).prop_map(|(k, w)| Probe::Param(k, w)),
        Just(Probe::Unbound),
        Just(Probe::Null),
        Just(Probe::NullParam),
        key().prop_map(Probe::Foreign),
        key().prop_map(Probe::AndAfter),
        key().prop_map(Probe::AndBefore),
        key().prop_map(Probe::FailingBefore),
        key().prop_map(Probe::FailingAfter),
        key().prop_map(Probe::UndecidedThenFailing),
        key().prop_map(Probe::Or),
        (key(), key()).prop_map(|(j, k)| Probe::Both(j, k)),
    ]
}

#[derive(Clone, Debug)]
enum Op {
    Insert {
        key: i64,
        qty: i64,
    },
    SetQty {
        probe: Probe,
        qty: i64,
    },
    /// Moves a row's key — to a free value or onto a taken one.
    MoveKey {
        from: Probe,
        to: i64,
    },
    Delete {
        probe: Probe,
    },
    Select {
        probe: Probe,
    },
    Begin,
    Commit,
    Rollback,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..KEYS, 0..10i64).prop_map(|(key, qty)| Op::Insert { key, qty }),
        (0..KEYS, 0..10i64).prop_map(|(key, qty)| Op::Insert { key, qty }),
        (arb_probe(), 0..10i64).prop_map(|(probe, qty)| Op::SetQty { probe, qty }),
        (arb_probe(), 0..KEYS).prop_map(|(from, to)| Op::MoveKey { from, to }),
        arb_probe().prop_map(|probe| Op::Delete { probe }),
        arb_probe().prop_map(|probe| Op::Select { probe }),
        Just(Op::Begin),
        Just(Op::Commit),
        Just(Op::Rollback),
    ]
}

/// A statement's outcome with the table's name taken out of it: the
/// result, or which kind of error.
fn outcome(
    r: Result<QueryResult, DbError>,
) -> Result<QueryResult, std::mem::Discriminant<DbError>> {
    r.map_err(|e| std::mem::discriminant(&e))
}

struct Rig {
    db: MiniDb,
    session: Session,
    ty: KeyType,
}

impl Rig {
    fn new(ty: KeyType) -> Rig {
        let db = MiniDb::new("props");
        let mut session = db.admin_session();
        for (table, constraint) in TABLES
            .iter()
            .zip(["PRIMARY KEY", "PRIMARY KEY", "NOT NULL"])
        {
            db.exec(
                &mut session,
                &format!(
                    "CREATE TABLE {table} (id {} {constraint}, qty INTEGER, tag VARCHAR)",
                    ty.sql_type()
                ),
            )
            .unwrap();
        }
        Rig { db, session, ty }
    }

    /// The key column as `table` has to spell it.
    fn column(&self, table: &str) -> &'static str {
        if table == "scanned" {
            self.ty.opaque_column()
        } else {
            "id"
        }
    }

    /// Runs `statement(table, where-clause)` on all three tables and
    /// returns the agreed outcome.
    fn run(
        &mut self,
        what: &str,
        probe: Option<&Probe>,
        statement: impl Fn(&str, &str) -> String,
    ) -> Result<QueryResult, std::mem::Discriminant<DbError>> {
        let mut outcomes = Vec::new();
        for table in TABLES {
            let (filter, params) = match probe {
                Some(p) => p.render(self.ty, self.column(table)),
                None => (String::new(), Params::new()),
            };
            let sql = statement(table, &filter);
            let duplicate = matches!(outcomes.first(), Some(Err(d))
                if *d == std::mem::discriminant(&DbError::DuplicateKey(String::new())));
            if table == "twin" && duplicate {
                // The twin would take the duplicate; leave it out, the
                // contents check below then proves the keyed tables
                // rejected it without side effects.
                continue;
            }
            outcomes.push(outcome(self.db.execute(&mut self.session, &sql, &params)));
        }
        let first = outcomes[0].clone();
        for (table, o) in TABLES.iter().zip(&outcomes) {
            assert_eq!(*o, first, "{what}: {table} disagrees with pinned");
        }
        first
    }

    fn contents(&mut self, table: &str) -> Vec<Vec<Value>> {
        self.db
            .exec(
                &mut self.session,
                &format!("SELECT * FROM {table} ORDER BY id"),
            )
            .unwrap()
            .rows()
            .unwrap()
            .rows
    }

    /// All three tables hold the same rows, and every key in the domain
    /// reads the same through the index, through a scan and on the twin.
    fn check(&mut self, what: &str) {
        let want = self.contents("twin");
        for table in ["pinned", "scanned"] {
            assert_eq!(self.contents(table), want, "{what}: contents of {table}");
        }
        for k in 0..KEYS {
            let found = self
                .run(what, Some(&Probe::Literal(k)), |table, filter| {
                    format!("SELECT qty, tag FROM {table} WHERE {filter}")
                })
                .expect("a key lookup cannot fail");
            let key = self.ty.value(k, 0);
            let rows: Vec<Vec<Value>> = want
                .iter()
                .filter(|r| r[0] == key)
                .map(|r| r[1..].to_vec())
                .collect();
            assert_eq!(
                found.rows().unwrap().rows,
                rows,
                "{what}: lookup of key {k}"
            );
        }
    }

    fn apply(&mut self, step: usize, op: &Op) {
        let what = format!("step {step} {op:?}");
        let ty = self.ty;
        match op {
            Op::Insert { key, qty } => {
                let taken = self
                    .contents("twin")
                    .iter()
                    .any(|r| r[0] == ty.value(*key, 0));
                let r = self.run(&what, None, |table, _| {
                    format!(
                        "INSERT INTO {table} VALUES ({}, {qty}, 'new')",
                        ty.literal(*key)
                    )
                });
                assert_eq!(r.is_err(), taken, "{what}: duplicate iff the key was taken");
            }
            Op::SetQty { probe, qty } => {
                let _ = self.run(&what, Some(probe), |table, filter| {
                    format!("UPDATE {table} SET qty = {qty}, tag = 'set' WHERE {filter}")
                });
            }
            Op::MoveKey { from, to } => {
                // One source row at most, so a rejected move has applied
                // nothing: `Or` and the failing probes may match several.
                if matches!(from, Probe::Or(_)) {
                    return;
                }
                let _ = self.run(&what, Some(from), |table, filter| {
                    format!("UPDATE {table} SET id = {} WHERE {filter}", ty.literal(*to))
                });
            }
            Op::Delete { probe } => {
                let _ = self.run(&what, Some(probe), |table, filter| {
                    format!("DELETE FROM {table} WHERE {filter}")
                });
            }
            Op::Select { probe } => {
                let _ = self.run(&what, Some(probe), |table, filter| {
                    format!("SELECT * FROM {table} WHERE {filter} ORDER BY id")
                });
            }
            Op::Begin | Op::Commit | Op::Rollback => {
                let sql = match op {
                    Op::Begin => "BEGIN",
                    Op::Commit => "COMMIT",
                    _ => "ROLLBACK",
                };
                // One session, one transaction over all three tables; a
                // stray BEGIN / COMMIT is an error and changes nothing.
                let _ = self.db.exec(&mut self.session, sql);
            }
        }
        self.check(&what);
    }
}

proptest! {
    #[test]
    fn integer_keys_read_the_same_through_the_index_and_through_a_scan(
        ops in prop::collection::vec(arb_op(), 0..40)
    ) {
        let mut rig = Rig::new(KeyType::Integer);
        for (step, op) in ops.iter().enumerate() {
            rig.apply(step, op);
        }
    }

    #[test]
    fn varchar_keys_read_the_same_through_the_index_and_through_a_scan(
        ops in prop::collection::vec(arb_op(), 0..40)
    ) {
        let mut rig = Rig::new(KeyType::Varchar);
        for (step, op) in ops.iter().enumerate() {
            rig.apply(step, op);
        }
    }
}

#[test]
fn references_checks_use_the_index_and_reject_what_they_rejected() {
    let db = MiniDb::new("fk");
    let mut s = db.admin_session();
    db.exec(
        &mut s,
        "CREATE TABLE parent (id INTEGER PRIMARY KEY, name VARCHAR)",
    )
    .unwrap();
    db.exec(
        &mut s,
        "CREATE TABLE child (pid INTEGER REFERENCES parent(id), note VARCHAR)",
    )
    .unwrap();
    for id in 0..1_000 {
        db.exec(&mut s, &format!("INSERT INTO parent VALUES ({id}, 'p')"))
            .unwrap();
    }

    let before = db.rows_examined();
    db.exec(&mut s, "INSERT INTO child VALUES (700, 'ok')")
        .unwrap();
    db.exec(&mut s, "INSERT INTO child VALUES (NULL, 'no parent named')")
        .unwrap();
    assert!(matches!(
        db.exec(&mut s, "INSERT INTO child VALUES (5000, 'orphan')"),
        Err(DbError::ForeignKey(_))
    ));
    assert!(
        db.rows_examined() - before <= 2,
        "three reference checks looked at {} of 1000 parents",
        db.rows_examined() - before
    );

    // A referenced parent stays; an unreferenced one goes, and so does
    // the referenced one once its child is gone.
    assert!(matches!(
        db.exec(&mut s, "DELETE FROM parent WHERE id = 700"),
        Err(DbError::ForeignKey(_))
    ));
    assert!(matches!(
        db.exec(&mut s, "UPDATE parent SET id = 7000 WHERE id = 700"),
        Err(DbError::ForeignKey(_))
    ));
    assert_eq!(
        db.exec(&mut s, "DELETE FROM parent WHERE id = 701")
            .unwrap(),
        QueryResult::Affected(1)
    );
    assert!(matches!(
        db.exec(&mut s, "INSERT INTO child VALUES (701, 'parent just left')"),
        Err(DbError::ForeignKey(_))
    ));
    db.exec(&mut s, "DELETE FROM child WHERE pid = 700")
        .unwrap();
    assert_eq!(
        db.exec(&mut s, "DELETE FROM parent WHERE id = 700")
            .unwrap(),
        QueryResult::Affected(1)
    );
    assert_eq!(db.table_len("parent").unwrap(), 998);
}

/// Rows the engine examines for one `workload::run_txn` against an
/// `orders` table of `rows` rows, through a real driver connection.
fn txn_rows_examined(rows: i64) -> u64 {
    let net = Network::new();
    let db = Arc::new(MiniDb::new("shop"));
    let at = Addr::new("db", 5432);
    net.bind_arc(at.clone(), Arc::new(DbServer::new(db.clone())))
        .unwrap();
    let driver = legacy_driver(&net, &Addr::new("app", 1), 1).unwrap();
    let mut conn = driver
        .connect(
            &DbUrl::direct(at, "shop"),
            &ConnectProps::user("admin", "admin"),
        )
        .unwrap();
    workload::setup(conn.as_mut()).unwrap();
    let mut s = db.admin_session();
    for id in 0..rows {
        db.exec(
            &mut s,
            &format!("INSERT INTO orders VALUES ({id}, 1, 'new')"),
        )
        .unwrap();
    }
    let before = db.rows_examined();
    workload::run_txn(conn.as_mut(), rows + 17).unwrap();
    db.rows_examined() - before
}

#[test]
fn the_loads_transaction_examines_as_many_rows_at_32k_as_at_1k() {
    let small = txn_rows_examined(1_000);
    let large = txn_rows_examined(32_000);
    assert_eq!(small, large, "rows examined by one transaction");
    // The INSERT's uniqueness check finds nothing to look at; the UPDATE
    // looks at the row it names and, storing it, at the holder of its key
    // (itself); the SELECT looks at the row it names.
    assert_eq!(small, 3);
}

#[test]
fn one_shot_literal_statements_neither_fill_nor_flush_the_parse_cache() {
    let db = MiniDb::new("cache");
    let mut s = db.admin_session();
    db.exec(
        &mut s,
        "CREATE TABLE orders (id INTEGER PRIMARY KEY, qty INTEGER)",
    )
    .unwrap();
    let lookup = "SELECT qty FROM orders WHERE id = $id";
    let mut p = Params::new();
    p.insert("id".into(), Value::Integer(500));
    db.execute(&mut s, lookup, &p).unwrap();
    db.exec(&mut s, "SELECT count(*) FROM orders").unwrap();
    let cached = db.cached_statements();
    assert_eq!(cached, 3, "CREATE TABLE, the lookup and the count");

    for id in 0..1_000 {
        db.exec(&mut s, &format!("INSERT INTO orders VALUES ({id}, 1)"))
            .unwrap();
    }
    assert_eq!(db.cached_statements(), cached, "1000 one-shot texts later");

    // Still the same parsed statement: executing it again adds nothing.
    let hit = db.execute(&mut s, lookup, &p).unwrap().rows().unwrap();
    assert_eq!(hit.rows, vec![vec![Value::Integer(1)]]);
    assert_eq!(
        db.exec(&mut s, "SELECT count(*) FROM orders")
            .unwrap()
            .rows()
            .unwrap()
            .rows[0][0],
        Value::BigInt(1_000)
    );
    assert_eq!(db.cached_statements(), cached);
}
