//! Drivolution as a license server (paper §5.4.2).
//!
//! Licenses are modelled as capacity-limited drivers: the per-user DB2
//! licensing case. Checkout happens when a driver is offered; return
//! happens on explicit [`LicenseManager::release`] (bootloader gives the
//! lease back), on lease expiry (server-side pruning), or when the
//! client's dedicated channel breaks (failure detection).
//!
//! # Sharding
//!
//! Seat state is split across N shards keyed by a stable FNV-1a hash of
//! the client host, so a fleet-scale renewal storm takes N independent
//! locks instead of one global one and every prune scan is shard-local.
//! The hash is the workspace's own [`fnv1a64`], not a `RandomState`, so
//! shard placement — and therefore replay — is seed-reproducible.
//!
//! Each limited driver's seat count is sliced into per-shard
//! **sub-quotas** (`Σ quota == limit`, `used ≤ quota` per shard): a
//! renewal or checkout that fits its shard's slice grants under that one
//! shard lock. When a shard exhausts its slice the slow path locks every
//! shard in index order, prunes the driver's expired seats globally,
//! grants or denies against the *exact* fleet-wide count, and rebalances
//! the quotas so the hot shard inherits the spare capacity. Denials are
//! therefore only ever issued from the exact path — sharding is
//! observationally equivalent to a single global table (pinned by
//! `tests/license_shard_props.rs`).

use std::collections::BTreeMap;

use parking_lot::Mutex;

use drivolution_core::{fnv1a64, DriverId, DrvError, DrvResult};

/// Default shard count for [`LicenseManager::new`]. Eight keeps the
/// per-shard prune scans an order of magnitude smaller on a 10k-client
/// fleet while staying cheap for single-client tests.
pub const DEFAULT_LICENSE_SHARDS: usize = 8;

/// Seat table of one driver within one shard.
#[derive(Debug)]
struct Seats {
    /// `(user, client_host)` → lease expiry instant.
    holders: BTreeMap<(String, String), u64>,
    /// Earliest expiry among `holders` (may be stale-low after renewals
    /// and releases — that only costs a harmless re-scan). Prune scans
    /// are skipped entirely while `now < next_expiry`, which keeps the
    /// renewal fast path O(log seats) instead of O(seats).
    next_expiry: u64,
    /// This shard's slice of the driver's seat limit. Invariant while
    /// balanced: the slices sum to the limit and every shard's holder
    /// count stays within its slice, so an in-quota grant cannot
    /// oversubscribe the fleet-wide limit. A limit change that leaves
    /// the fleet oversubscribed zeroes every slice, forcing all grants
    /// through the exact slow path until a rebalance restores balance.
    quota: usize,
}

impl Default for Seats {
    fn default() -> Self {
        Seats {
            holders: BTreeMap::new(),
            next_expiry: u64::MAX,
            quota: 0,
        }
    }
}

impl Seats {
    /// Drops expired holders if any can have expired, maintaining
    /// `next_expiry`. Exact: after this returns, every remaining holder
    /// is unexpired at `now_ms`.
    fn prune(&mut self, now_ms: u64) -> usize {
        if self.holders.is_empty() {
            self.next_expiry = u64::MAX;
            return 0;
        }
        if now_ms < self.next_expiry {
            return 0;
        }
        let before = self.holders.len();
        self.holders.retain(|_, exp| *exp > now_ms);
        self.next_expiry = self.holders.values().copied().min().unwrap_or(u64::MAX);
        before - self.holders.len()
    }

    fn insert(&mut self, user: &str, client_host: &str, expires_at_ms: u64) {
        self.holders
            .insert((user.to_string(), client_host.to_string()), expires_at_ms);
        self.next_expiry = self.next_expiry.min(expires_at_ms);
    }
}

/// One lock's worth of seat state.
#[derive(Debug, Default)]
struct Shard {
    held: BTreeMap<DriverId, Seats>,
}

/// Tracks per-driver license capacity and outstanding checkouts,
/// sharded by client host (see the module docs).
#[derive(Debug)]
pub struct LicenseManager {
    limits: Mutex<BTreeMap<DriverId, usize>>,
    shards: Vec<Mutex<Shard>>,
}

impl Default for LicenseManager {
    fn default() -> Self {
        LicenseManager::with_shards(DEFAULT_LICENSE_SHARDS)
    }
}

impl LicenseManager {
    /// Creates a manager with no limits (all drivers unlimited) and the
    /// default shard count.
    pub fn new() -> Self {
        LicenseManager::default()
    }

    /// Creates a manager with `shards` seat shards (clamped to ≥ 1).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1);
        LicenseManager {
            limits: Mutex::new(BTreeMap::new()),
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    /// The shard a client host's seats live in: stable FNV-1a of the
    /// host, so placement is identical across runs and processes.
    fn shard_for(&self, client_host: &str) -> Option<(usize, &Mutex<Shard>)> {
        let idx = (fnv1a64(client_host.as_bytes()) % self.shards.len() as u64) as usize;
        self.shards.get(idx).map(|m| (idx, m))
    }

    /// Caps `driver` at `seats` concurrent holders and re-slices the
    /// per-shard sub-quotas around the holders already seated.
    pub fn set_limit(&self, driver: DriverId, seats: usize) {
        self.limits.lock().insert(driver, seats);
        let mut guards: Vec<_> = self.shards.iter().map(|m| m.lock()).collect();
        let total: usize = guards
            .iter()
            .map(|g| g.held.get(&driver).map(|s| s.holders.len()).unwrap_or(0))
            .sum();
        if total >= seats {
            // Oversubscribed (limit lowered under live holders): zero
            // every slice so grants go through the exact path until
            // capacity frees up.
            for g in guards.iter_mut() {
                g.held.entry(driver).or_default().quota = 0;
            }
            return;
        }
        // Balanced: each shard keeps its current holders plus an even
        // slice of the spare capacity.
        let spare = seats - total;
        let n = guards.len();
        for (i, g) in guards.iter_mut().enumerate() {
            let seat = g.held.entry(driver).or_default();
            seat.quota = seat.holders.len() + spare / n + usize::from(i < spare % n);
        }
    }

    /// Remaining seats for `driver` (`None` = unlimited). **Read-only**:
    /// counts holders unexpired at `now_ms` without pruning, so stats
    /// and introspection never mutate seat state.
    pub fn available(&self, driver: DriverId, now_ms: u64) -> Option<usize> {
        let limit = *self.limits.lock().get(&driver)?;
        let used: usize = self
            .shards
            .iter()
            .map(|m| {
                m.lock()
                    .held
                    .get(&driver)
                    .map(|s| s.holders.values().filter(|exp| **exp > now_ms).count())
                    .unwrap_or(0)
            })
            .sum();
        Some(limit.saturating_sub(used))
    }

    /// Current holders of `driver` as `(user, client_host)` pairs,
    /// sorted. Read-only; includes seats whose lease has expired but has
    /// not been pruned yet.
    pub fn holders(&self, driver: DriverId) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = Vec::new();
        for m in &self.shards {
            if let Some(seats) = m.lock().held.get(&driver) {
                out.extend(seats.holders.keys().cloned());
            }
        }
        out.sort();
        out
    }

    /// Checks out one seat. A client renewing its own seat (same user and
    /// host) re-uses it rather than consuming a second one. Grants that
    /// fit the host shard's sub-quota take only that shard's lock; a
    /// shard that exhausted its slice falls back to the exact
    /// every-shard path, which also rebalances the slices toward it.
    ///
    /// # Errors
    ///
    /// [`DrvError::PermissionDenied`] when all seats are taken.
    pub fn acquire(
        &self,
        driver: DriverId,
        user: &str,
        client_host: &str,
        lease_ms: u64,
        now_ms: u64,
    ) -> DrvResult<()> {
        let Some(&limit) = self.limits.lock().get(&driver) else {
            return Ok(()); // unlimited driver
        };
        let Some((idx, cell)) = self.shard_for(client_host) else {
            return Ok(()); // unreachable: with_shards guarantees ≥ 1 shard
        };
        let expires_at_ms = now_ms.saturating_add(lease_ms);
        {
            let mut shard = cell.lock();
            let seats = shard.held.entry(driver).or_default();
            seats.prune(now_ms);
            let key = (user.to_string(), client_host.to_string());
            if let Some(exp) = seats.holders.get_mut(&key) {
                // Renewal in place: the seat is already this client's.
                *exp = expires_at_ms;
                seats.next_expiry = seats.next_expiry.min(expires_at_ms);
                return Ok(());
            }
            if seats.holders.len() < seats.quota {
                seats.insert(user, client_host, expires_at_ms);
                return Ok(());
            }
        }
        self.acquire_slow(driver, limit, idx, user, client_host, expires_at_ms, now_ms)
    }

    /// The exact path: every shard locked in index order, the driver's
    /// expired seats pruned fleet-wide, the grant/denial decided against
    /// the true total, and the sub-quotas rebalanced so the requesting
    /// shard inherits all spare capacity (it is the hot one).
    #[allow(clippy::too_many_arguments)]
    fn acquire_slow(
        &self,
        driver: DriverId,
        limit: usize,
        idx: usize,
        user: &str,
        client_host: &str,
        expires_at_ms: u64,
        now_ms: u64,
    ) -> DrvResult<()> {
        let mut guards: Vec<_> = self.shards.iter().map(|m| m.lock()).collect();
        let mut total = 0;
        for g in guards.iter_mut() {
            let seats = g.held.entry(driver).or_default();
            seats.prune(now_ms);
            total += seats.holders.len();
        }
        if total >= limit {
            return Err(DrvError::PermissionDenied(format!(
                "no license available for {driver}: {limit} seats in use"
            )));
        }
        let mut spare = limit;
        for (i, g) in guards.iter_mut().enumerate() {
            if i != idx {
                let seats = g.held.entry(driver).or_default();
                seats.quota = seats.holders.len();
                spare = spare.saturating_sub(seats.holders.len());
            }
        }
        for (i, g) in guards.iter_mut().enumerate() {
            if i == idx {
                let seats = g.held.entry(driver).or_default();
                seats.insert(user, client_host, expires_at_ms);
                seats.quota = spare;
            }
        }
        Ok(())
    }

    /// Returns a seat explicitly (bootloader notifying unload: "The
    /// bootloader can notify the Drivolution server when the driver is
    /// unloaded to give back its lease").
    pub fn release(&self, driver: DriverId, user: &str, client_host: &str) -> bool {
        let Some((_, cell)) = self.shard_for(client_host) else {
            return false;
        };
        let mut shard = cell.lock();
        if let Some(seats) = shard.held.get_mut(&driver) {
            return seats
                .holders
                .remove(&(user.to_string(), client_host.to_string()))
                .is_some();
        }
        false
    }

    /// Frees every seat held from `client_host` — the dedicated-channel
    /// failure detector: "If the Drivolution server and bootloader are
    /// using a dedicated connection, it can be used as a failure
    /// detector." Touches only the host's own shard.
    pub fn release_host(&self, client_host: &str) -> usize {
        let Some((_, cell)) = self.shard_for(client_host) else {
            return 0;
        };
        let mut shard = cell.lock();
        let mut freed = 0;
        for seats in shard.held.values_mut() {
            let before = seats.holders.len();
            seats.holders.retain(|(_, host), _| host != client_host);
            freed += before - seats.holders.len();
        }
        freed
    }

    /// Drops seats whose lease expired without renewal ("the Drivolution
    /// server can wait for the client lease to expire and … declare the
    /// driver freed"). Runs as a scheduled maintenance task, never on the
    /// request path.
    pub fn prune_expired(&self, now_ms: u64) -> usize {
        let mut freed = 0;
        for cell in &self.shards {
            let mut shard = cell.lock();
            for seats in shard.held.values_mut() {
                freed += seats.prune(now_ms);
            }
        }
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: DriverId = DriverId(1);

    #[test]
    fn unlimited_drivers_never_block() {
        let lm = LicenseManager::new();
        for i in 0..100 {
            lm.acquire(D, &format!("u{i}"), "h", 1000, 0).unwrap();
        }
        assert_eq!(lm.available(D, 0), None);
    }

    #[test]
    fn seats_are_enforced() {
        let lm = LicenseManager::new();
        lm.set_limit(D, 2);
        lm.acquire(D, "a", "h1", 1000, 0).unwrap();
        lm.acquire(D, "b", "h2", 1000, 0).unwrap();
        assert_eq!(lm.available(D, 0), Some(0));
        let e = lm.acquire(D, "c", "h3", 1000, 0).unwrap_err();
        assert!(matches!(e, DrvError::PermissionDenied(_)));
    }

    #[test]
    fn renewal_reuses_the_seat() {
        let lm = LicenseManager::new();
        lm.set_limit(D, 1);
        lm.acquire(D, "a", "h1", 1000, 0).unwrap();
        // Same client renews: fine, and the expiry moves out.
        lm.acquire(D, "a", "h1", 1000, 500).unwrap();
        assert_eq!(lm.available(D, 1400), Some(0));
        // Different client still blocked.
        assert!(lm.acquire(D, "b", "h2", 1000, 500).is_err());
    }

    #[test]
    fn explicit_release_frees_the_seat() {
        let lm = LicenseManager::new();
        lm.set_limit(D, 1);
        lm.acquire(D, "a", "h1", 1000, 0).unwrap();
        assert!(lm.release(D, "a", "h1"));
        assert!(!lm.release(D, "a", "h1"));
        lm.acquire(D, "b", "h2", 1000, 0).unwrap();
    }

    #[test]
    fn crashed_host_seats_are_freed_by_failure_detector() {
        let lm = LicenseManager::new();
        lm.set_limit(D, 2);
        lm.set_limit(DriverId(2), 1);
        lm.acquire(D, "a", "crashed", 1000, 0).unwrap();
        lm.acquire(DriverId(2), "a", "crashed", 1000, 0).unwrap();
        lm.acquire(D, "b", "alive", 1000, 0).unwrap();
        assert_eq!(lm.release_host("crashed"), 2);
        assert_eq!(lm.available(D, 0), Some(1));
        assert_eq!(lm.available(DriverId(2), 0), Some(1));
        assert_eq!(lm.holders(D), vec![("b".to_string(), "alive".to_string())]);
    }

    #[test]
    fn expired_seats_are_pruned() {
        let lm = LicenseManager::new();
        lm.set_limit(D, 1);
        lm.acquire(D, "a", "h1", 1000, 0).unwrap();
        // Not yet expired at 999.
        assert!(lm.acquire(D, "b", "h2", 1000, 999).is_err());
        // Expired at 1000 (lease granted at 0 for 1000ms).
        lm.acquire(D, "b", "h2", 1000, 1001).unwrap();
        assert_eq!(lm.prune_expired(1001), 0);
    }

    #[test]
    fn available_is_read_only() {
        // The read path must never prune as a side effect: an expired
        // seat is excluded from the count but still visible to
        // `holders()` until an explicit prune.
        let lm = LicenseManager::with_shards(4);
        lm.set_limit(D, 3);
        lm.acquire(D, "a", "h1", 100, 0).unwrap();
        lm.acquire(D, "b", "h2", 10_000, 0).unwrap();
        // At t=5000 "a" is expired: the count ignores it…
        assert_eq!(lm.available(D, 5000), Some(2));
        // …but the seat table was not mutated.
        assert_eq!(
            lm.holders(D),
            vec![
                ("a".to_string(), "h1".to_string()),
                ("b".to_string(), "h2".to_string())
            ]
        );
        // Only the explicit prune drops it.
        assert_eq!(lm.prune_expired(5000), 1);
        assert_eq!(lm.holders(D), vec![("b".to_string(), "h2".to_string())]);
    }

    #[test]
    fn quota_rebalance_hands_spare_seats_to_the_exhausted_shard() {
        // 16 shards, 4 seats: most shards start with a zero slice, so
        // grants exercise the slow path and must still all succeed
        // until the true limit is reached.
        let lm = LicenseManager::with_shards(16);
        lm.set_limit(D, 4);
        for i in 0..4 {
            lm.acquire(D, "u", &format!("host-{i}"), 1000, 0).unwrap();
        }
        assert_eq!(lm.available(D, 0), Some(0));
        assert!(lm.acquire(D, "u", "host-extra", 1000, 0).is_err());
        // Releasing one seat makes exactly one new grant possible.
        assert!(lm.release(D, "u", "host-0"));
        lm.acquire(D, "u", "host-extra", 1000, 0).unwrap();
        assert!(lm.acquire(D, "u", "host-more", 1000, 0).is_err());
    }

    #[test]
    fn lowering_a_limit_under_live_holders_blocks_new_grants() {
        let lm = LicenseManager::with_shards(4);
        lm.set_limit(D, 4);
        for i in 0..4 {
            lm.acquire(D, "u", &format!("h{i}"), 1000, 0).unwrap();
        }
        lm.set_limit(D, 2);
        // Oversubscribed: no new grant, even though some shard may have
        // had spare quota before the change.
        assert!(lm.acquire(D, "u", "h-new", 1000, 0).is_err());
        // Draining below the new limit re-opens capacity.
        assert!(lm.release(D, "u", "h0"));
        assert!(lm.release(D, "u", "h1"));
        assert!(lm.release(D, "u", "h2"));
        lm.acquire(D, "u", "h-new", 1000, 0).unwrap();
    }
}
