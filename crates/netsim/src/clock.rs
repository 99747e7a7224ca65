//! The virtual clock.
//!
//! Every time-dependent component in the workspace (leases, license
//! expirations, fleet simulations) takes a [`Clock`] handle instead of
//! reading the wall clock. The clock only moves when it is advanced, so
//! a "one-day lease" experiment runs in microseconds and is fully
//! deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cloneable clock handle measuring virtual milliseconds: it starts at
/// zero and only moves when [`Clock::advance_ms`] is called. All clones
/// share the same time source. No constructor reads the OS clock, so
/// "the simulation runs on virtual time" is a fact of the type.
///
/// # Examples
///
/// ```
/// use netsim::Clock;
///
/// let clock = Clock::simulated();
/// assert_eq!(clock.now_ms(), 0);
/// clock.advance_ms(86_400_000); // a full day, instantly
/// assert_eq!(clock.now_ms(), 86_400_000);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Clock {
    now_ms: Arc<AtomicU64>,
}

impl Clock {
    /// Creates a simulated clock starting at time zero.
    pub fn simulated() -> Self {
        Clock::default()
    }

    /// Current time in milliseconds since this clock's origin.
    pub fn now_ms(&self) -> u64 {
        self.now_ms.load(Ordering::SeqCst)
    }

    /// Advances the clock by `delta_ms` milliseconds and returns the new
    /// time.
    pub fn advance_ms(&self, delta_ms: u64) -> u64 {
        self.now_ms.fetch_add(delta_ms, Ordering::SeqCst) + delta_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_clock_starts_at_zero_and_advances() {
        let c = Clock::simulated();
        assert_eq!(c.now_ms(), 0);
        assert_eq!(c.advance_ms(5), 5);
        assert_eq!(c.now_ms(), 5);
        c.advance_ms(10);
        assert_eq!(c.now_ms(), 15);
    }

    #[test]
    fn clones_share_the_time_source() {
        let a = Clock::simulated();
        let b = a.clone();
        a.advance_ms(100);
        assert_eq!(b.now_ms(), 100);
    }

    #[test]
    fn default_is_simulated() {
        let c = Clock::default();
        assert_eq!(c.now_ms(), 0);
        assert_eq!(c.advance_ms(7), 7);
    }
}
