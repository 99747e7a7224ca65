//! A connection pool over a [`Driver`].
//!
//! Pools matter to Drivolution because of the `AFTER_CLOSE` expiration
//! policy: "If the client uses a connection pool, the first option might
//! not be a good choice since connection renewal is highly dependent on
//! connection pool settings and application load" (§3.4.2). The
//! `policy_matrix` integration test demonstrates exactly that stall.
//!
//! The pool captures its driver at construction and knows nothing about
//! driver upgrades: connections it recycles stay on the driver that
//! opened them (the bootloader's managed connections bypass the pool).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::api::{ConnectProps, Connection, Driver};
use crate::error::{DkError, DkResult};
use crate::url::DbUrl;

/// A connection pool over one driver, captured at construction.
pub struct ConnectionPool {
    driver: Arc<dyn Driver>,
    url: DbUrl,
    props: ConnectProps,
    max_size: usize,
    idle: Mutex<Vec<Box<dyn Connection>>>,
    live: AtomicUsize,
}

impl std::fmt::Debug for ConnectionPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnectionPool")
            .field("url", &self.url.to_string())
            .field("max_size", &self.max_size)
            .field("idle", &self.idle.lock().len())
            .field("live", &self.live.load(Ordering::SeqCst))
            .finish()
    }
}

impl ConnectionPool {
    /// Creates a pool of up to `max_size` connections.
    pub fn new(
        driver: Arc<dyn Driver>,
        url: DbUrl,
        props: ConnectProps,
        max_size: usize,
    ) -> Arc<Self> {
        Arc::new(ConnectionPool {
            driver,
            url,
            props,
            max_size: max_size.max(1),
            idle: Mutex::new(Vec::new()),
            live: AtomicUsize::new(0),
        })
    }

    /// Checks out a connection, reusing an idle one when possible.
    ///
    /// # Errors
    ///
    /// [`DkError::Closed`] when the pool is exhausted; connect errors when
    /// a new physical connection is needed and fails.
    pub fn checkout(self: &Arc<Self>) -> DkResult<PooledConnection> {
        loop {
            let candidate = self.idle.lock().pop();
            match candidate {
                Some(conn) if conn.is_open() => {
                    return Ok(PooledConnection {
                        conn: Some(conn),
                        pool: Arc::clone(self),
                    });
                }
                Some(_dead) => {
                    // Discard dead idle connections (e.g. force-closed by
                    // an IMMEDIATE policy) and try again.
                    self.live.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                None => break,
            }
        }
        if self.live.load(Ordering::SeqCst) >= self.max_size {
            return Err(DkError::Closed(format!(
                "pool exhausted ({} connections)",
                self.max_size
            )));
        }
        let conn = self.driver.connect(&self.url, &self.props)?;
        self.live.fetch_add(1, Ordering::SeqCst);
        Ok(PooledConnection {
            conn: Some(conn),
            pool: Arc::clone(self),
        })
    }

    /// Number of idle connections.
    pub fn idle_len(&self) -> usize {
        self.idle.lock().len()
    }

    fn check_in(&self, conn: Box<dyn Connection>) {
        if conn.is_open() {
            self.idle.lock().push(conn);
        } else {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// A checked-out connection; returns to the pool on drop.
pub struct PooledConnection {
    conn: Option<Box<dyn Connection>>,
    pool: Arc<ConnectionPool>,
}

impl std::fmt::Debug for PooledConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledConnection")
            .field("open", &self.is_open())
            .finish()
    }
}

impl PooledConnection {
    fn inner(&mut self) -> DkResult<&mut Box<dyn Connection>> {
        self.conn
            .as_mut()
            .ok_or_else(|| DkError::Closed("connection returned to pool".into()))
    }
}

impl Connection for PooledConnection {
    fn execute(&mut self, sql: &str) -> DkResult<minidb::QueryResult> {
        self.inner()?.execute(sql)
    }

    fn execute_params(
        &mut self,
        sql: &str,
        params: &minidb::Params,
    ) -> DkResult<minidb::QueryResult> {
        self.inner()?.execute_params(sql, params)
    }

    fn begin(&mut self) -> DkResult<()> {
        self.inner()?.begin()
    }

    fn commit(&mut self) -> DkResult<()> {
        self.inner()?.commit()
    }

    fn rollback(&mut self) -> DkResult<()> {
        self.inner()?.rollback()
    }

    fn in_transaction(&self) -> bool {
        self.conn
            .as_ref()
            .map(|c| c.in_transaction())
            .unwrap_or(false)
    }

    fn is_open(&self) -> bool {
        self.conn.as_ref().map(|c| c.is_open()).unwrap_or(false)
    }

    /// "Closing" a pooled connection returns it to the pool — the physical
    /// connection stays open. This is the behaviour that starves
    /// `AFTER_CLOSE` upgrades.
    fn close(&mut self) -> DkResult<()> {
        if let Some(conn) = self.conn.take() {
            self.pool.check_in(conn);
        }
        Ok(())
    }

    fn geo_query(&mut self, wkt: &str) -> DkResult<minidb::QueryResult> {
        self.inner()?.geo_query(wkt)
    }

    fn localized_message(&self, key: &str) -> DkResult<String> {
        match &self.conn {
            Some(c) => c.localized_message(key),
            None => Err(DkError::Closed("connection returned to pool".into())),
        }
    }
}

impl Drop for PooledConnection {
    fn drop(&mut self) {
        if let Some(conn) = self.conn.take() {
            self.pool.check_in(conn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legacy::legacy_driver;
    use minidb::wire::DbServer;
    use minidb::MiniDb;
    use netsim::{Addr, Network};

    fn pool_on(net: &Network, max: usize) -> Arc<ConnectionPool> {
        let db = Arc::new(MiniDb::new("pooled"));
        net.bind_arc(Addr::new("db", 5432), Arc::new(DbServer::new(db)))
            .unwrap();
        let d = legacy_driver(net, &Addr::new("app", 1), 2).unwrap();
        ConnectionPool::new(
            d,
            DbUrl::direct(Addr::new("db", 5432), "pooled"),
            ConnectProps::user("admin", "admin"),
            max,
        )
    }

    fn pool(max: usize) -> Arc<ConnectionPool> {
        pool_on(&Network::new(), max)
    }

    #[test]
    fn checkout_reuses_idle_connections() {
        let p = pool(4);
        let mut c = p.checkout().unwrap();
        c.execute("SELECT 1").unwrap();
        c.close().unwrap();
        assert_eq!(p.idle_len(), 1);
        let _c2 = p.checkout().unwrap();
        // Served from the idle list: no second connection was opened.
        assert_eq!(p.idle_len(), 0);
        assert_eq!(p.live.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pool_enforces_max_size() {
        let p = pool(2);
        let _a = p.checkout().unwrap();
        let _b = p.checkout().unwrap();
        assert!(matches!(p.checkout(), Err(DkError::Closed(_))));
    }

    #[test]
    fn drop_returns_to_pool() {
        let p = pool(2);
        {
            let _c = p.checkout().unwrap();
            assert_eq!(p.idle_len(), 0);
        }
        assert_eq!(p.idle_len(), 1);
    }

    #[test]
    fn dead_idle_connections_are_discarded() {
        let p = pool(2);
        let mut a = p.checkout().unwrap();
        // Physically close the connection, then return it to the pool.
        a.inner().unwrap().close().unwrap();
        drop(a);
        assert_eq!((p.idle_len(), p.live.load(Ordering::SeqCst)), (0, 0));
        // The dead connection is skipped and a new one opened.
        let mut b = p.checkout().unwrap();
        b.execute("SELECT 1").unwrap();
        assert_eq!(p.live.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pooled_connection_usable_through_trait() {
        let p = pool(1);
        let mut c = p.checkout().unwrap();
        c.begin().unwrap();
        assert!(c.in_transaction());
        c.rollback().unwrap();
        assert!(c.is_open());
        c.close().unwrap();
        assert!(!c.is_open());
        assert!(c.execute("SELECT 1").is_err());
    }
}
