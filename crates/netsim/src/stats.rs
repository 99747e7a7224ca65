//! Traffic accounting.
//!
//! The paper's lease-time tradeoff (§3.2: "Shorter lease times allow faster
//! reaction to upgrades but higher traffic to the Drivolution Server") is
//! reproduced by counting real protocol messages and bytes per destination
//! address. The `lease_tradeoff` benchmark reads these counters. Failures
//! are recorded as a *typed* ledger (dropped / unreachable / partitioned /
//! refused, plus corrupted serves) so chaos runs can assert on failure
//! kinds, not totals.

use std::collections::BTreeMap;

use parking_lot::Mutex;

use crate::Addr;

/// The kind of one recorded request failure (or byzantine corruption).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The message was lost in flight (global or per-link loss).
    Dropped,
    /// The destination host was down or nothing was bound there.
    Unreachable,
    /// A host or zone partition separated the endpoints.
    Partitioned,
    /// The service handled the request and refused it (application
    /// error).
    Refused,
    /// The response was delivered but its payload was corrupted in
    /// flight (byzantine host). Counted separately from `failures`: the
    /// network delivered it; the *content* was wrong.
    Corrupted,
}

/// Per-destination traffic counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AddrStats {
    /// Number of request messages delivered to this address.
    pub requests: u64,
    /// Total request payload bytes delivered to this address.
    pub bytes_in: u64,
    /// Total response payload bytes produced by this address.
    pub bytes_out: u64,
    /// Number of requests that failed, any kind except `Corrupted` (the
    /// sum of `dropped + unreachable + partitioned + refused`).
    pub failures: u64,
    /// Failures where the message was lost in flight.
    pub dropped: u64,
    /// Failures where the host was down or nothing was bound.
    pub unreachable: u64,
    /// Failures where a partition separated the endpoints.
    pub partitioned: u64,
    /// Failures where the service refused the request.
    pub refused: u64,
    /// Responses this address served that were corrupted in flight
    /// (byzantine fault injection). Not counted in `failures` — the
    /// exchange completed; the bytes were wrong.
    pub corrupted: u64,
}

/// Shared traffic statistics for a [`crate::Network`].
#[derive(Debug, Default)]
pub struct NetStats {
    inner: Mutex<BTreeMap<Addr, AddrStats>>,
}

impl NetStats {
    /// Creates an empty stats collector.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Runs `f` on `to`'s counters, cloning the address only the first
    /// time it is seen.
    fn update(&self, to: &Addr, f: impl FnOnce(&mut AddrStats)) {
        let mut m = self.inner.lock();
        match m.get_mut(to) {
            Some(e) => f(e),
            None => f(m.entry(to.clone()).or_default()),
        }
    }

    pub(crate) fn record_request(&self, to: &Addr, req_bytes: usize) {
        self.update(to, |e| {
            e.requests += 1;
            e.bytes_in += req_bytes as u64;
        });
    }

    pub(crate) fn record_response(&self, to: &Addr, resp_bytes: usize) {
        self.update(to, |e| e.bytes_out += resp_bytes as u64);
    }

    pub(crate) fn record_failure(&self, to: &Addr, kind: FailureKind) {
        self.update(to, |e| {
            e.failures += u64::from(kind != FailureKind::Corrupted);
            *match kind {
                FailureKind::Dropped => &mut e.dropped,
                FailureKind::Unreachable => &mut e.unreachable,
                FailureKind::Partitioned => &mut e.partitioned,
                FailureKind::Refused => &mut e.refused,
                FailureKind::Corrupted => &mut e.corrupted,
            } += 1;
        });
    }

    /// Counters for one destination address (zeroes if never contacted).
    pub fn for_addr(&self, addr: &Addr) -> AddrStats {
        self.inner.lock().get(addr).cloned().unwrap_or_default()
    }

    /// Sum of counters over all destination addresses.
    pub fn totals(&self) -> AddrStats {
        let m = self.inner.lock();
        let mut t = AddrStats::default();
        for s in m.values() {
            t.requests += s.requests;
            t.bytes_in += s.bytes_in;
            t.bytes_out += s.bytes_out;
            t.failures += s.failures;
            t.dropped += s.dropped;
            t.unreachable += s.unreachable;
            t.partitioned += s.partitioned;
            t.refused += s.refused;
            t.corrupted += s.corrupted;
        }
        t
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.inner.lock().clear();
    }

    /// Snapshot of every per-address counter, sorted by address.
    pub fn snapshot(&self) -> Vec<(Addr, AddrStats)> {
        let m = self.inner.lock();
        m.iter().map(|(a, s)| (a.clone(), s.clone())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = NetStats::new();
        let a = Addr::new("srv", 1);
        s.record_request(&a, 10);
        s.record_request(&a, 20);
        s.record_response(&a, 5);
        s.record_failure(&a, FailureKind::Refused);
        let st = s.for_addr(&a);
        assert_eq!(st.requests, 2);
        assert_eq!(st.bytes_in, 30);
        assert_eq!(st.bytes_out, 5);
        assert_eq!(st.failures, 1);
        assert_eq!(st.refused, 1);
    }

    #[test]
    fn failure_kinds_land_in_their_own_ledger_entries() {
        let s = NetStats::new();
        let a = Addr::new("srv", 1);
        s.record_failure(&a, FailureKind::Dropped);
        s.record_failure(&a, FailureKind::Dropped);
        s.record_failure(&a, FailureKind::Unreachable);
        s.record_failure(&a, FailureKind::Partitioned);
        s.record_failure(&a, FailureKind::Refused);
        s.record_failure(&a, FailureKind::Corrupted);
        let st = s.for_addr(&a);
        assert_eq!(st.dropped, 2);
        assert_eq!(st.unreachable, 1);
        assert_eq!(st.partitioned, 1);
        assert_eq!(st.refused, 1);
        assert_eq!(st.corrupted, 1);
        assert_eq!(
            st.failures,
            st.dropped + st.unreachable + st.partitioned + st.refused,
            "failures is the sum of the non-corruption kinds"
        );
    }

    #[test]
    fn totals_sum_across_addrs() {
        let s = NetStats::new();
        s.record_request(&Addr::new("a", 1), 1);
        s.record_request(&Addr::new("b", 2), 2);
        s.record_failure(&Addr::new("a", 1), FailureKind::Dropped);
        s.record_failure(&Addr::new("b", 2), FailureKind::Corrupted);
        let t = s.totals();
        assert_eq!(t.requests, 2);
        assert_eq!(t.bytes_in, 3);
        assert_eq!(t.dropped, 1);
        assert_eq!(t.corrupted, 1);
        assert_eq!(t.failures, 1);
    }

    #[test]
    fn reset_clears() {
        let s = NetStats::new();
        s.record_request(&Addr::new("a", 1), 1);
        s.reset();
        assert_eq!(s.totals(), AddrStats::default());
    }

    #[test]
    fn snapshot_is_sorted() {
        let s = NetStats::new();
        s.record_request(&Addr::new("b", 1), 1);
        s.record_request(&Addr::new("a", 1), 1);
        let snap = s.snapshot();
        assert_eq!(snap[0].0, Addr::new("a", 1));
        assert_eq!(snap[1].0, Addr::new("b", 1));
    }
}
