//! Connection tracking and expiration-policy enforcement.
//!
//! The bootloader owns every connection it hands to the application so it
//! can apply the paper's expiration policies (§3.4.2):
//!
//! * `AFTER_CLOSE` — connections stay on the old driver until the
//!   application closes them;
//! * `AFTER_COMMIT` — idle connections close immediately, in-transaction
//!   connections close right after their COMMIT/ROLLBACK;
//! * `IMMEDIATE` — all connections are terminated at once.
//!
//! The tracker is the session-aware substrate the hot-swap coordinator
//! (`crate::swap`) drives — it marks a namespace's sessions as draining
//! and escalates overdue sessions through the policy ladder without ever
//! severing an `AFTER_COMMIT` transaction.

use std::sync::Arc;

use parking_lot::Mutex;

use driverkit::{Connection, NamespaceId};
use drivolution_core::ExpirationPolicy;

/// Shared state of one managed connection.
pub(crate) struct TrackedConn {
    pub inner: Option<Box<dyn Connection>>,
    pub ns: NamespaceId,
    pub close_after_commit: bool,
    /// Set while the connection's namespace is inside a coexistence
    /// window: the managed wrapper reconnects onto the active namespace
    /// at the next transaction boundary.
    pub migrate_at_boundary: bool,
    pub revoked_reason: Option<String>,
}

impl TrackedConn {
    pub(crate) fn force_close(&mut self, reason: &str) {
        if let Some(mut c) = self.inner.take() {
            let _ = c.close();
        }
        if self.revoked_reason.is_none() {
            self.revoked_reason = Some(reason.to_string());
        }
    }
}

/// What a drain-deadline escalation did to a namespace's sessions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EscalationOutcome {
    /// Sessions force-closed on the spot.
    pub closed_now: usize,
    /// In-transaction sessions marked to close right after their COMMIT
    /// or ROLLBACK (`AFTER_COMMIT`: the transaction is never severed).
    pub close_at_commit: usize,
    /// Live transactions severed by a forced close (`IMMEDIATE` only —
    /// the last resort).
    pub severed: usize,
}

/// Registry of live managed connections, grouped by driver namespace.
#[derive(Default)]
pub struct ConnectionTracker {
    conns: Mutex<Vec<Arc<Mutex<TrackedConn>>>>,
}

impl std::fmt::Debug for ConnectionTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnectionTracker")
            .field("tracked", &self.conns.lock().len())
            .finish()
    }
}

impl ConnectionTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        ConnectionTracker::default()
    }

    pub(crate) fn register(
        &self,
        inner: Box<dyn Connection>,
        ns: NamespaceId,
    ) -> Arc<Mutex<TrackedConn>> {
        let state = Arc::new(Mutex::new(TrackedConn {
            inner: Some(inner),
            ns,
            close_after_commit: false,
            migrate_at_boundary: false,
            revoked_reason: None,
        }));
        self.conns.lock().push(state.clone());
        state
    }

    /// Flags every live session of `ns` as draining: the managed wrapper
    /// migrates each one to the active namespace at its next transaction
    /// boundary. Returns how many sessions were flagged — the coexistence
    /// window's starting population.
    pub fn mark_draining(&self, ns: NamespaceId) -> usize {
        let conns = self.conns.lock().clone();
        let mut marked = 0;
        for state in conns {
            let mut st = state.lock();
            if st.ns != ns || st.inner.is_none() {
                continue;
            }
            st.migrate_at_boundary = true;
            marked += 1;
        }
        marked
    }

    /// The expiration-policy ladder (§3.4.2), the one place it is
    /// decided: enforces `policy` on every live session of `ns` and
    /// reports what it did. Upgrades, revocations and releases call it
    /// the moment the namespace retires; the hot-swap coordinator calls
    /// it on the stragglers of an expired drain window. Dead entries stay
    /// in the table for the caller's prune (or the maintenance sweep).
    ///
    /// * `AFTER_CLOSE` — never forces anything.
    /// * `AFTER_COMMIT` — idle sessions close now; in-transaction
    ///   sessions are marked close-after-commit. No transaction is ever
    ///   severed.
    /// * `IMMEDIATE` — everything closes now, severing live transactions
    ///   (the last resort).
    pub fn escalate(
        &self,
        ns: NamespaceId,
        policy: ExpirationPolicy,
        reason: &str,
    ) -> EscalationOutcome {
        let conns = self.conns.lock().clone();
        let mut out = EscalationOutcome::default();
        for state in conns {
            let mut st = state.lock();
            if st.ns != ns || st.inner.is_none() {
                continue;
            }
            let in_txn = st
                .inner
                .as_ref()
                .map(|c| c.in_transaction())
                .unwrap_or(false);
            match policy {
                ExpirationPolicy::AfterClose => {}
                ExpirationPolicy::AfterCommit => {
                    if in_txn {
                        if !st.close_after_commit {
                            st.close_after_commit = true;
                            out.close_at_commit += 1;
                        }
                    } else {
                        st.force_close(reason);
                        out.closed_now += 1;
                    }
                }
                ExpirationPolicy::Immediate => {
                    st.force_close(reason);
                    out.closed_now += 1;
                    if in_txn {
                        out.severed += 1;
                    }
                }
            }
        }
        out
    }

    /// Number of live connections on `ns`.
    fn live_count(&self, ns: NamespaceId) -> usize {
        self.conns
            .lock()
            .iter()
            .filter(|s| {
                let st = s.lock();
                st.ns == ns && st.inner.is_some()
            })
            .count()
    }

    /// Total live connections across namespaces.
    pub fn total_live(&self) -> usize {
        self.conns
            .lock()
            .iter()
            .filter(|s| s.lock().inner.is_some())
            .count()
    }

    /// Entries in the tracking table, including closed sessions not yet
    /// pruned. The scheduled maintenance sweep keeps this converging to
    /// [`total_live`](Self::total_live).
    pub fn tracked_len(&self) -> usize {
        self.conns.lock().len()
    }

    /// Whether `ns` has no live connections left (safe to unload).
    pub fn drained(&self, ns: NamespaceId) -> bool {
        self.live_count(ns) == 0
    }

    /// Drops tracking entries for closed connections.
    pub fn prune(&self) {
        self.conns.lock().retain(|s| s.lock().inner.is_some());
    }

    /// Scheduled maintenance: reaps sessions whose physical connection
    /// died underneath the tracker (server-side close, reaped peer) so a
    /// zombie entry can never hold a namespace's drain open, then prunes
    /// the table. Returns how many entries were dropped.
    pub fn sweep(&self) -> usize {
        let before = {
            let conns = self.conns.lock().clone();
            for state in &conns {
                let mut st = state.lock();
                let dead = st.inner.as_ref().map(|c| !c.is_open()).unwrap_or(false);
                if dead {
                    st.force_close("session closed by peer; reaped by maintenance sweep");
                }
            }
            conns.len()
        };
        self.prune();
        before - self.conns.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use driverkit::{DkError, DkResult};
    use minidb::{Params, QueryResult};

    /// An in-memory connection good enough for policy tests.
    struct FakeConn {
        open: bool,
        txn: bool,
    }

    impl Connection for FakeConn {
        fn execute(&mut self, _sql: &str) -> DkResult<QueryResult> {
            Ok(QueryResult::Affected(0))
        }
        fn execute_params(&mut self, _sql: &str, _p: &Params) -> DkResult<QueryResult> {
            Ok(QueryResult::Affected(0))
        }
        fn begin(&mut self) -> DkResult<()> {
            self.txn = true;
            Ok(())
        }
        fn commit(&mut self) -> DkResult<()> {
            self.txn = false;
            Ok(())
        }
        fn rollback(&mut self) -> DkResult<()> {
            self.txn = false;
            Ok(())
        }
        fn in_transaction(&self) -> bool {
            self.txn
        }
        fn is_open(&self) -> bool {
            self.open
        }
        fn close(&mut self) -> DkResult<()> {
            self.open = false;
            Ok(())
        }
        fn geo_query(&mut self, _wkt: &str) -> DkResult<QueryResult> {
            Err(DkError::ExtensionMissing("gis".into()))
        }
        fn localized_message(&self, _key: &str) -> DkResult<String> {
            Ok(String::new())
        }
    }

    fn conn(txn: bool) -> Box<dyn Connection> {
        Box::new(FakeConn { open: true, txn })
    }

    const NS1: NamespaceId = NamespaceId(1);
    const NS2: NamespaceId = NamespaceId(2);

    #[test]
    fn prune_drops_closed_entries() {
        let t = ConnectionTracker::new();
        let a = t.register(conn(false), NS1);
        a.lock().force_close("test");
        t.prune();
        assert_eq!(t.total_live(), 0);
        assert!(t.drained(NS1));
    }

    #[test]
    fn force_close_keeps_first_reason() {
        let t = ConnectionTracker::new();
        let a = t.register(conn(false), NS1);
        a.lock().force_close("first");
        a.lock().force_close("second");
        assert_eq!(a.lock().revoked_reason.as_deref(), Some("first"));
    }

    #[test]
    fn mark_draining_flags_only_the_namespace() {
        let t = ConnectionTracker::new();
        let a = t.register(conn(false), NS1);
        let other = t.register(conn(false), NS2);
        assert_eq!(t.mark_draining(NS1), 1);
        assert!(a.lock().migrate_at_boundary);
        assert!(!other.lock().migrate_at_boundary);
    }

    /// The whole ladder in one table: every policy against an idle
    /// session, a session inside a transaction, and a session an earlier
    /// rung already marked close-after-commit.
    #[test]
    fn ladder_outcome_for_every_policy_and_session_state() {
        use ExpirationPolicy::{AfterClose, AfterCommit, Immediate};
        #[derive(Clone, Copy, Debug)]
        enum Session {
            Idle,
            InTxn,
            MarkedInTxn,
        }
        let out = |closed_now, close_at_commit, severed| EscalationOutcome {
            closed_now,
            close_at_commit,
            severed,
        };
        // (policy, session, outcome, still live afterwards)
        let rows = [
            (AfterClose, Session::Idle, out(0, 0, 0), true),
            (AfterClose, Session::InTxn, out(0, 0, 0), true),
            (AfterClose, Session::MarkedInTxn, out(0, 0, 0), true),
            (AfterCommit, Session::Idle, out(1, 0, 0), false),
            (AfterCommit, Session::InTxn, out(0, 1, 0), true),
            // Idempotent: a session already marked is not recounted.
            (AfterCommit, Session::MarkedInTxn, out(0, 0, 0), true),
            (Immediate, Session::Idle, out(1, 0, 0), false),
            (Immediate, Session::InTxn, out(1, 0, 1), false),
            (Immediate, Session::MarkedInTxn, out(1, 0, 1), false),
        ];
        for (policy, session, want, live) in rows {
            let t = ConnectionTracker::new();
            let s = t.register(conn(!matches!(session, Session::Idle)), NS1);
            s.lock().close_after_commit = matches!(session, Session::MarkedInTxn);
            let bystander = t.register(conn(true), NS2);
            let got = t.escalate(NS1, policy, "ladder");
            assert_eq!(got, want, "{policy:?} on {session:?}");
            assert_eq!(s.lock().inner.is_some(), live, "{policy:?} on {session:?}");
            assert_eq!(t.drained(NS1), !live, "{policy:?} on {session:?}");
            if matches!(policy, AfterCommit) {
                assert_eq!(got.severed, 0, "AFTER_COMMIT severed a transaction");
                let marked = !matches!(session, Session::Idle);
                assert_eq!(s.lock().close_after_commit, marked);
            }
            // Other namespaces are never touched.
            assert!(bystander.lock().inner.is_some());
            assert!(!bystander.lock().close_after_commit);
        }
        // A mixed population gets the sum of its rows.
        for policy in [AfterClose, AfterCommit, Immediate] {
            let t = ConnectionTracker::new();
            t.register(conn(false), NS1);
            t.register(conn(true), NS1);
            t.register(conn(true), NS1).lock().close_after_commit = true;
            let mut want = EscalationOutcome::default();
            for (_, _, row, _) in rows.iter().filter(|r| r.0 == policy) {
                want.closed_now += row.closed_now;
                want.close_at_commit += row.close_at_commit;
                want.severed += row.severed;
            }
            assert_eq!(t.escalate(NS1, policy, "ladder"), want, "{policy:?}");
        }
    }

    #[test]
    fn sweep_reaps_dead_connections_and_prunes() {
        let t = ConnectionTracker::new();
        let a = t.register(conn(false), NS1);
        let _b = t.register(conn(false), NS1);
        // Kill the physical connection underneath the tracker: the entry
        // still holds `inner` but the session is gone.
        if let Some(c) = a.lock().inner.as_mut() {
            let _ = c.close();
        }
        assert_eq!(t.total_live(), 2, "zombie counted as live before sweep");
        assert_eq!(t.sweep(), 1);
        assert_eq!(t.total_live(), 1);
        assert_eq!(t.tracked_len(), 1);
    }
}
