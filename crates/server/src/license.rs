//! Drivolution as a license server (paper §5.4.2).
//!
//! Licenses are modelled as capacity-limited drivers: the per-user DB2
//! licensing case. Checkout happens when a driver is offered; return
//! happens on explicit [`LicenseManager::release`] (bootloader gives the
//! lease back), on lease expiry (server-side pruning), or when the
//! client's dedicated channel breaks (failure detection).
//!
//! One seat table behind one lock. A driver's seats are keyed user →
//! client host → lease expiry, so a renewal finds its seat by the
//! borrowed `&str`s it was given and allocates nothing. A new checkout
//! is granted or denied against the driver's exact holder count, taken
//! after that driver's expired seats are pruned.

use std::collections::BTreeMap;

use parking_lot::Mutex;

use drivolution_core::{DriverId, DrvError, DrvResult};

/// Seat table of one driver.
#[derive(Debug, Default)]
struct Seats {
    /// user → client host → lease expiry instant.
    users: BTreeMap<String, BTreeMap<String, u64>>,
    /// At most the earliest expiry among the seats (stale-low after
    /// renewals and releases, and zero when new — that only costs a
    /// harmless re-scan). Prune scans are skipped entirely while
    /// `now < next_expiry`, which keeps the renewal path O(log seats)
    /// instead of O(seats).
    next_expiry: u64,
}

impl Seats {
    /// Drops expired seats, and users left with none, if any seat can
    /// have expired, maintaining `next_expiry`. Exact: after this
    /// returns, every remaining seat is unexpired at `now_ms`.
    fn prune(&mut self, now_ms: u64) -> usize {
        if now_ms < self.next_expiry {
            return 0;
        }
        let (mut freed, mut next) = (0, u64::MAX);
        self.users.retain(|_, hosts| {
            let before = hosts.len();
            hosts.retain(|_, exp| *exp > now_ms);
            freed += before - hosts.len();
            next = hosts.values().copied().fold(next, u64::min);
            !hosts.is_empty()
        });
        self.next_expiry = next;
        freed
    }
}

/// Seat limits and the seats held under them.
#[derive(Debug, Default)]
struct Table {
    limits: BTreeMap<DriverId, usize>,
    held: BTreeMap<DriverId, Seats>,
}

/// Tracks per-driver license capacity and outstanding checkouts.
#[derive(Debug, Default)]
pub struct LicenseManager {
    table: Mutex<Table>,
}

impl LicenseManager {
    /// Creates a manager with no limits (all drivers unlimited).
    pub fn new() -> Self {
        LicenseManager::default()
    }

    /// The same as [`LicenseManager::new`]: the table is one table
    /// whatever `_shards` says. Kept for callers that still pass a count.
    pub fn with_shards(_shards: usize) -> Self {
        LicenseManager::new()
    }

    /// Caps `driver` at `seats` concurrent holders. Lowering a limit
    /// under live holders denies new checkouts until they drain below it.
    pub fn set_limit(&self, driver: DriverId, seats: usize) {
        self.table.lock().limits.insert(driver, seats);
    }

    /// Remaining seats for `driver` (`None` = unlimited). **Read-only**:
    /// counts holders unexpired at `now_ms` without pruning, so stats
    /// and introspection never mutate seat state.
    pub fn available(&self, driver: DriverId, now_ms: u64) -> Option<usize> {
        let table = self.table.lock();
        let limit = *table.limits.get(&driver)?;
        let used = table.held.get(&driver).map_or(0, |seats| {
            seats
                .users
                .values()
                .flat_map(BTreeMap::values)
                .filter(|exp| **exp > now_ms)
                .count()
        });
        Some(limit.saturating_sub(used))
    }

    /// Current holders of `driver` as `(user, client_host)` pairs,
    /// sorted. Read-only; includes seats whose lease has expired but has
    /// not been pruned yet.
    pub fn holders(&self, driver: DriverId) -> Vec<(String, String)> {
        let table = self.table.lock();
        let users = table.held.get(&driver).map(|seats| &seats.users);
        users
            .into_iter()
            .flatten()
            .flat_map(|(user, hosts)| hosts.keys().map(move |host| (user.clone(), host.clone())))
            .collect()
    }

    /// Checks out one seat. A client renewing its own seat (same user and
    /// host) re-uses it rather than consuming a second one.
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
        let mut table = self.table.lock();
        let Table { limits, held } = &mut *table;
        let Some(&limit) = limits.get(&driver) else {
            return Ok(()); // unlimited driver
        };
        let seats = held.entry(driver).or_default();
        seats.prune(now_ms);
        let expires_at_ms = now_ms.saturating_add(lease_ms);
        let seat = seats
            .users
            .get_mut(user)
            .and_then(|hosts| hosts.get_mut(client_host));
        if let Some(exp) = seat {
            // Renewal in place: the seat is already this client's.
            *exp = expires_at_ms;
        } else if seats.users.values().map(BTreeMap::len).sum::<usize>() >= limit {
            return Err(DrvError::PermissionDenied(format!(
                "no license available for {driver}: {limit} seats in use"
            )));
        } else {
            seats
                .users
                .entry(user.to_string())
                .or_default()
                .insert(client_host.to_string(), expires_at_ms);
        }
        seats.next_expiry = seats.next_expiry.min(expires_at_ms);
        Ok(())
    }

    /// Returns a seat explicitly (bootloader notifying unload: "The
    /// bootloader can notify the Drivolution server when the driver is
    /// unloaded to give back its lease").
    pub fn release(&self, driver: DriverId, user: &str, client_host: &str) -> bool {
        let mut table = self.table.lock();
        let hosts = table
            .held
            .get_mut(&driver)
            .and_then(|s| s.users.get_mut(user));
        hosts.is_some_and(|hosts| hosts.remove(client_host).is_some())
    }

    /// Frees every seat held from `client_host` — the dedicated-channel
    /// failure detector: "If the Drivolution server and bootloader are
    /// using a dedicated connection, it can be used as a failure
    /// detector." One lookup per (driver, user).
    pub fn release_host(&self, client_host: &str) -> usize {
        let mut table = self.table.lock();
        let hosts = table.held.values_mut().flat_map(|s| s.users.values_mut());
        hosts.filter_map(|hosts| hosts.remove(client_host)).count()
    }

    /// Drops seats whose lease expired without renewal ("the Drivolution
    /// server can wait for the client lease to expire and … declare the
    /// driver freed"). Runs as a scheduled maintenance task, never on the
    /// request path.
    pub fn prune_expired(&self, now_ms: u64) -> usize {
        let mut table = self.table.lock();
        table.held.values_mut().map(|s| s.prune(now_ms)).sum()
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
        let lm = LicenseManager::new();
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
    fn grants_run_to_the_limit_and_a_release_reopens_one() {
        // 4 seats on distinct hosts: every grant succeeds until the
        // true limit is reached.
        let lm = LicenseManager::new();
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
        let lm = LicenseManager::new();
        lm.set_limit(D, 4);
        for i in 0..4 {
            lm.acquire(D, "u", &format!("h{i}"), 1000, 0).unwrap();
        }
        lm.set_limit(D, 2);
        // Oversubscribed: no new grant.
        assert!(lm.acquire(D, "u", "h-new", 1000, 0).is_err());
        // Draining below the new limit re-opens capacity.
        assert!(lm.release(D, "u", "h0"));
        assert!(lm.release(D, "u", "h1"));
        assert!(lm.release(D, "u", "h2"));
        lm.acquire(D, "u", "h-new", 1000, 0).unwrap();
    }
}
