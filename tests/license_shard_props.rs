//! Property tests pinning the license seat table against a brute-force
//! model: for any op sequence, [`LicenseManager`] gives the same grants
//! and denials, the same `available` counts, the same sorted holder
//! lists and the same `release` / `release_host` / `prune_expired`
//! results as a flat list of `(driver, user, host, expiry)` seats,
//! compared at every step.
//!
//! The model drops expired seats exactly where the table prunes — on an
//! acquire of a limited driver (that driver's seats only) and on a
//! maintenance pass — so expired-but-unpruned seats are part of the
//! compared state, not slack.

use std::collections::BTreeMap;

use proptest::prelude::*;

use drivolution::core::DriverId;
use drivolution::server::LicenseManager;

#[derive(Clone, Debug)]
enum Op {
    /// Cap `driver` at `seats` concurrent holders.
    SetLimit { driver: u8, seats: usize },
    /// `(user, host)` checks out / renews a seat on `driver`.
    Acquire {
        driver: u8,
        user: u8,
        host: u8,
        lease_ms: u64,
    },
    /// Explicit seat give-back.
    Release { driver: u8, user: u8, host: u8 },
    /// Dedicated-channel failure detector: free every seat of `host`.
    ReleaseHost { host: u8 },
    /// Scheduled maintenance pass at the current clock.
    Prune,
    /// Let time pass (leases expire without any table mutation).
    Advance { dt_ms: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..3u8, 0..12usize).prop_map(|(driver, seats)| Op::SetLimit { driver, seats }),
        (0..3u8, 0..4u8, 0..10u8, 1..500u64).prop_map(|(driver, user, host, lease_ms)| {
            Op::Acquire {
                driver,
                user,
                host,
                lease_ms,
            }
        }),
        (0..3u8, 0..4u8, 0..10u8).prop_map(|(driver, user, host)| Op::Release {
            driver,
            user,
            host
        }),
        (0..10u8).prop_map(|host| Op::ReleaseHost { host }),
        Just(Op::Prune),
        (0..400u64).prop_map(|dt_ms| Op::Advance { dt_ms }),
    ]
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(arb_op(), 0..60)
}

fn user(u: u8) -> String {
    format!("user-{u}")
}

fn host(h: u8) -> String {
    format!("host-{h}")
}

/// The reference: every seat in one list, every query a scan.
#[derive(Default)]
struct Model {
    limits: BTreeMap<u8, usize>,
    /// `(driver, user, host, expiry)`.
    seats: Vec<(u8, u8, u8, u64)>,
}

impl Model {
    /// Drops the seats of `driver` (every driver when `None`) whose
    /// lease ran out at `now_ms`, returning how many went.
    fn prune(&mut self, driver: Option<u8>, now_ms: u64) -> usize {
        let before = self.seats.len();
        self.seats
            .retain(|&(d, _, _, exp)| driver.is_some_and(|x| x != d) || exp > now_ms);
        before - self.seats.len()
    }

    fn acquire(&mut self, driver: u8, user: u8, host: u8, lease_ms: u64, now_ms: u64) -> bool {
        let Some(&limit) = self.limits.get(&driver) else {
            return true;
        };
        self.prune(Some(driver), now_ms);
        let expiry = now_ms + lease_ms;
        if let Some(seat) = self
            .seats
            .iter_mut()
            .find(|(d, u, h, _)| (*d, *u, *h) == (driver, user, host))
        {
            seat.3 = expiry;
            return true;
        }
        if self.seats.iter().filter(|s| s.0 == driver).count() >= limit {
            return false;
        }
        self.seats.push((driver, user, host, expiry));
        true
    }

    fn release(&mut self, driver: u8, user: u8, host: u8) -> bool {
        let before = self.seats.len();
        self.seats
            .retain(|&(d, u, h, _)| (d, u, h) != (driver, user, host));
        before != self.seats.len()
    }

    fn release_host(&mut self, host: u8) -> usize {
        let before = self.seats.len();
        self.seats.retain(|&(_, _, h, _)| h != host);
        before - self.seats.len()
    }

    fn available(&self, driver: u8, now_ms: u64) -> Option<usize> {
        let limit = *self.limits.get(&driver)?;
        let used = self
            .seats
            .iter()
            .filter(|&&(d, _, _, exp)| d == driver && exp > now_ms)
            .count();
        Some(limit.saturating_sub(used))
    }

    fn holders(&self, driver: u8) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .seats
            .iter()
            .filter(|s| s.0 == driver)
            .map(|&(_, u, h, _)| (user(u), host(h)))
            .collect();
        out.sort();
        out
    }
}

proptest! {
    #[test]
    fn sharded_tables_are_observationally_equivalent(ops in arb_ops()) {
        let table = LicenseManager::new();
        let mut model = Model::default();
        let mut now_ms = 0u64;

        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::SetLimit { driver, seats } => {
                    table.set_limit(DriverId(driver as i64), seats);
                    model.limits.insert(driver, seats);
                }
                Op::Acquire { driver, user: u, host: h, lease_ms } => {
                    let got = table
                        .acquire(DriverId(driver as i64), &user(u), &host(h), lease_ms, now_ms)
                        .is_ok();
                    let want = model.acquire(driver, u, h, lease_ms, now_ms);
                    prop_assert_eq!(got, want, "step {}: {:?} at t={}", step, op, now_ms);
                }
                Op::Release { driver, user: u, host: h } => {
                    let got = table.release(DriverId(driver as i64), &user(u), &host(h));
                    let want = model.release(driver, u, h);
                    prop_assert_eq!(got, want, "step {}: {:?}", step, op);
                }
                Op::ReleaseHost { host: h } => {
                    let got = table.release_host(&host(h));
                    let want = model.release_host(h);
                    prop_assert_eq!(got, want, "step {}: {:?}", step, op);
                }
                Op::Prune => {
                    let got = table.prune_expired(now_ms);
                    let want = model.prune(None, now_ms);
                    prop_assert_eq!(got, want, "step {}: prune at t={}", step, now_ms);
                }
                Op::Advance { dt_ms } => now_ms += dt_ms,
            }

            for d in 0..3u8 {
                let id = DriverId(d as i64);
                prop_assert_eq!(
                    table.available(id, now_ms),
                    model.available(d, now_ms),
                    "step {}: available({}) at t={}", step, d, now_ms
                );
                prop_assert_eq!(
                    table.holders(id),
                    model.holders(d),
                    "step {}: holders({}) at t={}", step, d, now_ms
                );
            }
        }
    }
}
