//! Managed connections: what the application receives from
//! [`Bootloader::connect`]. The application uses them exactly like any
//! RDBC connection; the bootloader retains enough control to enforce
//! expiration policies, to fetch missing extensions lazily, and — when a
//! hot-swap coexistence window is open — to migrate the session onto the
//! new driver at its next transaction boundary, invisibly to the
//! application.

use std::sync::Arc;

use parking_lot::Mutex;

use driverkit::{Connection, DkError, DkResult, NamespaceId};
use minidb::{Params, QueryResult};

use crate::bootloader::Bootloader;
use crate::tracker::TrackedConn;

/// A connection managed by the bootloader.
pub struct ManagedConnection {
    state: Arc<Mutex<TrackedConn>>,
    bootloader: Arc<Bootloader>,
}

impl std::fmt::Debug for ManagedConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManagedConnection")
            .field("open", &self.is_open())
            .finish()
    }
}

impl ManagedConnection {
    pub(crate) fn new(state: Arc<Mutex<TrackedConn>>, bootloader: Arc<Bootloader>) -> Self {
        ManagedConnection { state, bootloader }
    }

    fn closed_err(reason: &Option<String>) -> DkError {
        match reason {
            Some(r) => DkError::Closed(r.clone()),
            None => DkError::Closed("connection is closed".into()),
        }
    }

    fn with_inner<R>(
        &mut self,
        f: impl FnOnce(&mut Box<dyn Connection>) -> DkResult<R>,
    ) -> DkResult<R> {
        let mut st = self.state.lock();
        match st.inner.as_mut() {
            Some(c) => f(c),
            None => Err(Self::closed_err(&st.revoked_reason)),
        }
    }

    /// Migrates this session onto the active namespace if it is flagged
    /// for boundary migration and sits at a transaction boundary. A
    /// failed reconnect keeps the session on its current driver — the
    /// query about to run must not be dropped; migration retries at the
    /// next boundary.
    fn maybe_migrate(&mut self) {
        let (pending, in_txn, ns) = {
            let st = self.state.lock();
            match st.inner.as_ref() {
                Some(c) => (st.migrate_at_boundary, c.in_transaction(), st.ns),
                None => return,
            }
        };
        if pending && !in_txn {
            self.migrate_now(ns);
        }
    }

    /// Reconnects onto the active namespace (the same transparent
    /// reconnect lazy extension fetch uses) and retires the old inner
    /// connection. No-op when the session's namespace is still active.
    fn migrate_now(&mut self, old_ns: NamespaceId) {
        let target_is_new = self
            .bootloader
            .registry()
            .active()
            .map(|ns| ns.id != old_ns)
            .unwrap_or(false);
        if !target_is_new {
            // Nothing newer to move to (blackout or the flag is stale):
            // keep executing where we are.
            self.state.lock().migrate_at_boundary = false;
            return;
        }
        match self.bootloader.reconnect() {
            Ok((new_inner, new_ns)) => {
                {
                    let mut st = self.state.lock();
                    st.migrate_at_boundary = false;
                    st.close_after_commit = false;
                }
                let old_ns = self.replace_inner(new_inner, new_ns);
                self.bootloader.note_session_migrated();
                self.bootloader.maybe_unload(old_ns);
            }
            Err(_) => {
                // Server unreachable: stay on the old driver, retry at
                // the next boundary. Zero dropped queries beats a punctual
                // migration.
            }
        }
    }

    /// Installs `new_inner` on `new_ns`, closes the connection it
    /// replaces, and returns the namespace the session left.
    fn replace_inner(
        &mut self,
        new_inner: Box<dyn Connection>,
        new_ns: NamespaceId,
    ) -> NamespaceId {
        let mut st = self.state.lock();
        if let Some(mut old) = st.inner.replace(new_inner) {
            let _ = old.close();
        }
        std::mem::replace(&mut st.ns, new_ns)
    }

    fn finish_txn(
        &mut self,
        f: impl FnOnce(&mut Box<dyn Connection>) -> DkResult<()>,
    ) -> DkResult<()> {
        let (result, close_now, migrate, ns) = {
            let mut st = self.state.lock();
            let Some(c) = st.inner.as_mut() else {
                return Err(Self::closed_err(&st.revoked_reason));
            };
            let r = f(c);
            let close_now = r.is_ok() && st.close_after_commit;
            if close_now {
                st.force_close("driver upgraded; connection closed after commit (AFTER_COMMIT)");
            }
            let migrate = r.is_ok() && !close_now && st.migrate_at_boundary;
            (r, close_now, migrate, st.ns)
        };
        if close_now {
            self.bootloader.maybe_unload(ns);
        } else if migrate {
            // The transaction just ended: this is exactly the boundary a
            // draining session migrates at.
            self.migrate_now(ns);
        }
        result
    }
}

impl Connection for ManagedConnection {
    fn execute(&mut self, sql: &str) -> DkResult<QueryResult> {
        self.maybe_migrate();
        self.with_inner(|c| c.execute(sql))
    }

    fn execute_params(&mut self, sql: &str, params: &Params) -> DkResult<QueryResult> {
        self.maybe_migrate();
        self.with_inner(|c| c.execute_params(sql, params))
    }

    fn begin(&mut self) -> DkResult<()> {
        self.maybe_migrate();
        self.with_inner(|c| c.begin())
    }

    /// Commits; if an `AFTER_COMMIT` upgrade is pending, the connection is
    /// closed right after the commit succeeds (Table 4:
    /// `close_active_connections_after_commit`); if a coexistence window
    /// is draining this session, it migrates onto the new driver instead.
    fn commit(&mut self) -> DkResult<()> {
        self.finish_txn(|c| c.commit())
    }

    fn rollback(&mut self) -> DkResult<()> {
        self.finish_txn(|c| c.rollback())
    }

    fn in_transaction(&self) -> bool {
        self.state
            .lock()
            .inner
            .as_ref()
            .map(|c| c.in_transaction())
            .unwrap_or(false)
    }

    fn is_open(&self) -> bool {
        self.state
            .lock()
            .inner
            .as_ref()
            .map(|c| c.is_open())
            .unwrap_or(false)
    }

    fn close(&mut self) -> DkResult<()> {
        let ns = {
            let mut st = self.state.lock();
            if let Some(mut c) = st.inner.take() {
                c.close()?;
            }
            st.ns
        };
        self.bootloader.maybe_unload(ns);
        Ok(())
    }

    /// GIS query with lazy extension fetch: on the first
    /// extension-missing failure the bootloader downloads the GIS package
    /// (§5.4.1), this connection transparently reconnects on the enriched
    /// driver, and the query is retried once. Inside a transaction the
    /// typed error is returned instead: reconnecting would sever it.
    fn geo_query(&mut self, wkt: &str) -> DkResult<QueryResult> {
        self.maybe_migrate();
        match self.with_inner(|c| c.geo_query(wkt)) {
            Err(DkError::ExtensionMissing(name))
                if self.bootloader.lazy_extensions() && !self.in_transaction() =>
            {
                self.bootloader.fetch_extension(&name)?;
                let (new_inner, new_ns) = self.bootloader.reconnect()?;
                let old_ns = self.replace_inner(new_inner, new_ns);
                self.bootloader.maybe_unload(old_ns);
                self.with_inner(|c| c.geo_query(wkt))
            }
            other => other,
        }
    }

    fn localized_message(&self, key: &str) -> DkResult<String> {
        let st = self.state.lock();
        match st.inner.as_ref() {
            Some(c) => c.localized_message(key),
            None => Err(Self::closed_err(&st.revoked_reason)),
        }
    }
}

impl Drop for ManagedConnection {
    fn drop(&mut self) {
        let _ = self.close();
    }
}
