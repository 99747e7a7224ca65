//! The virtual database: full replication (RAIDb-1 style) over a set of
//! backends, with a recovery log for disable/enable cycles.

use std::fmt;

use parking_lot::Mutex;

use driverkit::{DkError, DkResult};
use minidb::{DbError, QueryResult};

use crate::backend::Backend;

/// Whether an error is a transport/availability failure (backend should
/// be disabled or skipped) rather than a deterministic statement error.
pub fn is_transport_error(e: &DkError) -> bool {
    match e {
        DkError::Db(DbError::Session(_)) => true,
        DkError::Db(_) => false,
        _ => true,
    }
}

/// Classifies a statement as read (load-balanced) or write (broadcast).
pub fn is_read(sql: &str) -> bool {
    minidb::sql::leading_keyword(sql).eq_ignore_ascii_case("SELECT")
}

struct VdbInner {
    backends: Vec<Backend>,
    recovery_log: Vec<String>,
    rr: usize,
}

/// A replicated virtual database presented to clients as a single one.
pub struct VirtualDb {
    name: String,
    inner: Mutex<VdbInner>,
}

impl fmt::Debug for VirtualDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("VirtualDb")
            .field("name", &self.name)
            .field("backends", &inner.backends.len())
            .field("log_len", &inner.recovery_log.len())
            .finish()
    }
}

impl VirtualDb {
    /// Creates a virtual database over `backends`.
    pub fn new(name: impl Into<String>, backends: Vec<Backend>) -> Self {
        VirtualDb {
            name: name.into(),
            inner: Mutex::new(VdbInner {
                backends,
                recovery_log: Vec::new(),
                rr: 0,
            }),
        }
    }

    /// Virtual database name (what clients put in their URL).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Names of all backends with their enabled state.
    pub fn backend_states(&self) -> Vec<(String, bool)> {
        self.inner
            .lock()
            .backends
            .iter()
            .map(|b| (b.name().to_string(), b.is_enabled()))
            .collect()
    }

    /// Number of committed writes in the recovery log.
    pub fn log_len(&self) -> usize {
        self.inner.lock().recovery_log.len()
    }

    /// Executes a write on every enabled backend and appends it to the
    /// recovery log. All replicas must succeed (full replication); a
    /// failing replica is disabled and the write continues on the rest.
    ///
    /// # Errors
    ///
    /// [`DkError::NoHostAvailable`] when no enabled backend remains, or
    /// the database error when the statement itself is bad (same error on
    /// all replicas).
    pub fn execute_write(&self, sql: &str) -> DkResult<QueryResult> {
        let mut inner = self.inner.lock();
        let mut result: Option<QueryResult> = None;
        let mut stmt_error: Option<DkError> = None;
        let mut failed: Vec<usize> = Vec::new();
        let mut attempted = 0;
        for (i, b) in inner.backends.iter().enumerate() {
            if !b.is_enabled() {
                continue;
            }
            attempted += 1;
            match b.open().and_then(|mut c| c.execute(sql)) {
                Ok(r) => result = Some(r),
                Err(e) if is_transport_error(&e) => failed.push(i),
                Err(e) => {
                    // The statement itself is bad: deterministic across
                    // replicas, no need to disable anyone.
                    stmt_error = Some(e);
                }
            }
        }
        if attempted == 0 {
            return Err(DkError::NoHostAvailable(format!(
                "virtual database {} has no enabled backend",
                self.name
            )));
        }
        let log_index = inner.recovery_log.len();
        for i in failed {
            inner.backends[i].set_enabled(false);
            inner.backends[i].set_applied(log_index);
        }
        if let Some(e) = stmt_error {
            return Err(e);
        }
        match result {
            Some(r) => {
                inner.recovery_log.push(sql.to_string());
                let new_len = inner.recovery_log.len();
                for b in inner.backends.iter_mut().filter(|b| b.is_enabled()) {
                    b.set_applied(new_len);
                }
                Ok(r)
            }
            None => Err(DkError::NoHostAvailable(format!(
                "all backends of {} failed the write",
                self.name
            ))),
        }
    }

    /// Executes a read on one enabled backend (round robin), failing over
    /// to the next on transport errors.
    ///
    /// # Errors
    ///
    /// [`DkError::NoHostAvailable`] when every backend fails.
    pub fn execute_read(&self, sql: &str) -> DkResult<QueryResult> {
        let mut inner = self.inner.lock();
        let n = inner.backends.len();
        if n == 0 {
            return Err(DkError::NoHostAvailable(format!(
                "virtual database {} has no backends",
                self.name
            )));
        }
        inner.rr = (inner.rr + 1) % n;
        let start = inner.rr;
        let mut last: Option<DkError> = None;
        for off in 0..n {
            let i = (start + off) % n;
            if !inner.backends[i].is_enabled() {
                continue;
            }
            match inner.backends[i].open().and_then(|mut c| c.execute(sql)) {
                Ok(r) => return Ok(r),
                Err(e) if is_transport_error(&e) => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            DkError::NoHostAvailable(format!(
                "virtual database {} has no enabled backend",
                self.name
            ))
        }))
    }

    /// Disables a backend (maintenance / driver upgrade), remembering its
    /// checkpoint in the recovery log.
    ///
    /// # Errors
    ///
    /// [`DkError::Closed`] for unknown backends.
    pub fn disable_backend(&self, name: &str) -> DkResult<()> {
        let mut inner = self.inner.lock();
        let log_len = inner.recovery_log.len();
        let b = inner
            .backends
            .iter_mut()
            .find(|b| b.name() == name)
            .ok_or_else(|| DkError::Closed(format!("unknown backend {name}")))?;
        b.set_enabled(false);
        b.set_applied(log_len);
        Ok(())
    }

    /// Re-enables a backend, replaying the recovery log from its
    /// checkpoint first ("re-enabled and resynchronized from its
    /// checkpoint by the Sequoia controller", §5.3.1).
    ///
    /// Returns the number of replayed writes.
    ///
    /// # Errors
    ///
    /// [`DkError::Closed`] for unknown backends; replay errors abort the
    /// enable and leave the backend disabled.
    pub fn enable_backend(&self, name: &str) -> DkResult<usize> {
        let mut inner = self.inner.lock();
        let log: Vec<String> = inner.recovery_log.clone();
        let b = inner
            .backends
            .iter_mut()
            .find(|b| b.name() == name)
            .ok_or_else(|| DkError::Closed(format!("unknown backend {name}")))?;
        let from = b.applied();
        let mut conn = b.open()?;
        let mut replayed = 0;
        for stmt in &log[from..] {
            conn.execute(stmt)?;
            replayed += 1;
        }
        b.set_applied(log.len());
        b.set_enabled(true);
        Ok(replayed)
    }

    /// Runs `f` with the named backend (e.g. to swap its driver factory).
    ///
    /// # Errors
    ///
    /// [`DkError::Closed`] for unknown backends.
    pub fn with_backend<R>(&self, name: &str, f: impl FnOnce(&Backend) -> R) -> DkResult<R> {
        let inner = self.inner.lock();
        let b = inner
            .backends
            .iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| DkError::Closed(format!("unknown backend {name}")))?;
        Ok(f(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use driverkit::{legacy_driver, ConnectProps, DbUrl};
    use minidb::wire::DbServer;
    use minidb::{MiniDb, Value};
    use netsim::{Addr, Network};
    use std::sync::Arc;

    fn setup(n: usize) -> (Network, Vec<Arc<MiniDb>>, VirtualDb) {
        let net = Network::new();
        let mut dbs = Vec::new();
        let mut backends = Vec::new();
        for i in 0..n {
            let db = Arc::new(MiniDb::with_clock("vdb", net.clock().clone()));
            {
                let mut s = db.admin_session();
                db.exec(&mut s, "CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR)")
                    .unwrap();
            }
            let addr = Addr::new(format!("replica{i}"), 5432);
            net.bind_arc(addr.clone(), Arc::new(DbServer::new(db.clone())))
                .unwrap();
            let driver = legacy_driver(&net, &Addr::new("ctrl", 1), 2).unwrap();
            backends.push(crate::backend::Backend::with_driver(
                format!("replica{i}"),
                driver,
                DbUrl::direct(addr, "vdb"),
                ConnectProps::user("admin", "admin"),
            ));
            dbs.push(db);
        }
        let vdb = VirtualDb::new("vdb", backends);
        (net, dbs, vdb)
    }

    #[test]
    fn writes_reach_all_replicas_reads_one() {
        let (net, dbs, vdb) = setup(3);
        vdb.execute_write("INSERT INTO t VALUES (1, 'x')").unwrap();
        for db in &dbs {
            assert_eq!(db.table_len("t").unwrap(), 1);
        }
        let r = vdb
            .execute_read("SELECT count(*) FROM t")
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(r.rows[0][0], Value::BigInt(1));
        // Reads only touch one replica per call.
        let before = net.stats().totals().requests;
        vdb.execute_read("SELECT 1").unwrap();
        let delta = net.stats().totals().requests - before;
        // One connect handshake + one query + close = 3 messages to a
        // single replica.
        assert!(delta <= 3, "read touched too many replicas: {delta} msgs");
    }

    #[test]
    fn disable_enable_resyncs_from_checkpoint() {
        let (_net, dbs, vdb) = setup(2);
        vdb.execute_write("INSERT INTO t VALUES (1, 'a')").unwrap();
        vdb.disable_backend("replica1").unwrap();
        vdb.execute_write("INSERT INTO t VALUES (2, 'b')").unwrap();
        vdb.execute_write("INSERT INTO t VALUES (3, 'c')").unwrap();
        assert_eq!(dbs[0].table_len("t").unwrap(), 3);
        assert_eq!(dbs[1].table_len("t").unwrap(), 1);
        let replayed = vdb.enable_backend("replica1").unwrap();
        assert_eq!(replayed, 2);
        assert_eq!(dbs[1].table_len("t").unwrap(), 3);
        assert_eq!(
            vdb.backend_states(),
            vec![
                ("replica0".to_string(), true),
                ("replica1".to_string(), true)
            ]
        );
    }

    #[test]
    fn crashed_replica_is_disabled_writes_continue() {
        let (net, dbs, vdb) = setup(2);
        net.with_faults(|f| f.take_down("replica1"));
        vdb.execute_write("INSERT INTO t VALUES (1, 'a')").unwrap();
        assert_eq!(dbs[0].table_len("t").unwrap(), 1);
        let states = vdb.backend_states();
        assert_eq!(states[1], ("replica1".to_string(), false));
        // Heal and resync.
        net.with_faults(|f| f.restore("replica1"));
        vdb.enable_backend("replica1").unwrap();
        assert_eq!(dbs[1].table_len("t").unwrap(), 1);
    }

    #[test]
    fn bad_statement_fails_without_disabling_replicas() {
        let (_net, _dbs, vdb) = setup(2);
        assert!(matches!(
            vdb.execute_write("INSERT INTO nosuch VALUES (1)"),
            Err(DkError::Db(_))
        ));
        assert!(vdb.backend_states().iter().all(|(_, on)| *on));
        assert_eq!(vdb.log_len(), 0);
    }

    #[test]
    fn reads_fail_over_to_surviving_replica() {
        let (net, _dbs, vdb) = setup(2);
        net.with_faults(|f| f.take_down("replica0"));
        for _ in 0..4 {
            vdb.execute_read("SELECT 1").unwrap();
        }
    }

    #[test]
    fn no_enabled_backend_is_an_error() {
        let (_net, _dbs, vdb) = setup(1);
        vdb.disable_backend("replica0").unwrap();
        assert!(matches!(
            vdb.execute_write("INSERT INTO t VALUES (1, 'x')"),
            Err(DkError::NoHostAvailable(_))
        ));
        assert!(vdb.execute_read("SELECT 1").is_err());
    }

    #[test]
    fn is_read_classifier() {
        assert!(is_read("SELECT 1"));
        assert!(is_read("  select * from t"));
        assert!(!is_read("INSERT INTO t VALUES (1)"));
        assert!(!is_read("UPDATE t SET a = 1"));
        assert!(!is_read("BEGIN"));
    }
}
