//! The SQL minidb speaks is the SQL its callers send. Each construct no
//! caller sends is gone, and asking for it is a typed error, never a
//! panic and never rows; each construct a caller does send still runs,
//! with that caller named beside it, so a later diet cannot drop it by
//! mistake. Both tables go through the engine (`MiniDb::exec`) and
//! through a legacy driver's wire connection.

use std::sync::Arc;

use drivolution::driverkit::{legacy_driver, ConnectProps, DbUrl};
use drivolution::minidb::QueryResult;
use drivolution::prelude::*;

/// Constructs no caller outside minidb sends.
const GONE: &[&str] = &[
    "SELECT sum(qty) FROM orders",
    "SELECT avg(qty) FROM orders",
    "SELECT min(qty) FROM orders",
    "SELECT max(qty) FROM orders",
    "SELECT count(qty) FROM orders",
    "SELECT count(*), max(qty) FROM orders",
    "SELECT sum(*) FROM orders",
    "SELECT lower(tag) FROM orders",
    "SELECT upper(tag) FROM orders",
    "SELECT abs(qty) FROM orders",
    "SELECT current_timestamp()",
    "SELECT DISTINCT tag FROM orders",
    "SELECT id FROM orders ORDER BY id LIMIT 1",
    "UPDATE orders SET tag = upper(tag) WHERE id = 1",
];

/// Constructs a caller sends, each with that caller and the rows (or the
/// affected count) it must give on the fixture below.
const KEPT: &[(&str, &str, &str)] = &[
    (
        "CREATE TEMP TABLE scratch (x INTEGER)",
        "tests/sybase_case.rs (§5.3.1's Sybase caveat)",
        "0",
    ),
    (
        "SELECT length('POINT(1 2)') AS wkt_len",
        "driverkit::InterpretedDriver::geo_query",
        "[[BigInt(10)]]",
    ),
    (
        "SELECT coalesce(NULL, tag) FROM orders WHERE id = 1",
        "tests/minidb_index_props.rs (`coalesce(id)`)",
        "[[Varchar(\"new\")]]",
    ),
    (
        "SELECT count(*) FROM orders WHERE now() >= 0",
        "server::store (Sample code 2's `now() BETWEEN`)",
        "[[BigInt(2)]]",
    ),
    (
        "SELECT id FROM orders WHERE tag LIKE 'n%'",
        "server::store (Sample codes 1 and 2)",
        "[[Integer(1)]]",
    ),
    (
        "SELECT id FROM orders WHERE qty BETWEEN 5 AND 9",
        "server::store (Sample code 2)",
        "[[Integer(2)]]",
    ),
    (
        "SELECT id FROM orders ORDER BY qty DESC, id",
        "server::store (`ORDER BY driver_id`)",
        "[[Integer(2)], [Integer(1)]]",
    ),
    (
        "SELECT count(*) FROM orders",
        "server::store::lease_count, fleet::workload",
        "[[BigInt(2)]]",
    ),
    (
        "INSERT OR REPLACE INTO orders VALUES (1, 3, 'old')",
        "server::store::log_lease",
        "1",
    ),
    (
        "SELECT id + 0, qty * 2 - 1 FROM orders WHERE id = 2",
        "tests/minidb_index_props.rs (`id + 0`, `at + 0`)",
        "[[BigInt(2), BigInt(13)]]",
    ),
    (
        "SELECT id FROM orders WHERE qty / 0 > 1",
        "tests/minidb_index_props.rs (`qty / 0`: a typed error on a row)",
        "error",
    ),
];

const SETUP: &[&str] = &[
    "CREATE TABLE orders (id INTEGER PRIMARY KEY, qty INTEGER, tag VARCHAR)",
    "INSERT INTO orders VALUES (1, 3, 'new'), (2, 7, 'old')",
];

/// What a statement gave, in one comparable spelling: the rows, the
/// affected count, or `error`.
fn outcome(result: Result<QueryResult, String>) -> String {
    match result {
        Ok(QueryResult::Rows(rs)) => format!("{:?}", rs.rows),
        Ok(QueryResult::Affected(n)) => n.to_string(),
        Err(_) => "error".into(),
    }
}

/// Runs `sql` on a fresh fixture, once on the engine and once through a
/// wire connection, and returns both outcomes.
fn both_ways(sql: &str) -> [(String, String); 2] {
    let db = MiniDb::new("shop");
    let mut s = db.admin_session();
    for setup in SETUP {
        db.exec(&mut s, setup).unwrap();
    }
    let direct = db.exec(&mut s, sql);
    let direct_err = direct.as_ref().err().map(|e| format!("{e:?}"));
    let direct = outcome(direct.map_err(|e| e.to_string()));

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
    for setup in SETUP {
        conn.execute(setup).unwrap();
    }
    let wire = conn.execute(sql);
    let wire_err = wire.as_ref().err().map(|e| format!("{e:?}"));
    let wire = outcome(wire.map_err(|e| e.to_string()));
    [
        (direct, direct_err.unwrap_or_default()),
        (wire, wire_err.unwrap_or_default()),
    ]
}

#[test]
fn sql_no_caller_sends_is_a_typed_error_both_ways() {
    for sql in GONE {
        let [(direct, why), (wire, wire_why)] = both_ways(sql);
        assert_eq!(direct, "error", "{sql}: the engine answered {direct}");
        assert_eq!(wire, "error", "{sql}: the wire answered {wire}");
        assert!(
            wire_err_is_the_engines(&wire_why, &why),
            "{sql}: {wire_why} vs {why}"
        );
    }
}

/// The wire carries the engine's error as a `DkError::Db` of the same kind.
fn wire_err_is_the_engines(wire: &str, direct: &str) -> bool {
    let kind = direct.split('(').next().unwrap_or_default();
    wire.starts_with(&format!("Db({kind}("))
}

#[test]
fn sql_a_caller_sends_still_runs_both_ways() {
    for (sql, caller, want) in KEPT {
        for (way, (got, why)) in ["engine", "wire"].iter().zip(both_ways(sql)) {
            assert_eq!(&got, want, "{sql} ({caller}) over the {way}: {why}");
        }
    }
}
