//! Zero-downtime hot swap: bounded dual-version coexistence with
//! connection draining.
//!
//! Without this module an upgrade is "swap the image between polls":
//! the expiration-policy ladder
//! ([`crate::tracker::ConnectionTracker::escalate`]) runs over the old
//! sessions the instant the new driver activates, so a steady workload
//! sees its next query fail. With a [`SwapConfig`] installed, the
//! upgrade instead opens a **coexistence window**:
//!
//! 1. the new namespace activates — all *new* sessions open on it;
//! 2. every old-namespace session is flagged as draining; each one
//!    migrates transparently onto the new driver at its next
//!    transaction boundary (idle sessions at their next statement,
//!    in-transaction sessions right after COMMIT/ROLLBACK);
//! 3. the bootloader's lifecycle task ticks the window; when the
//!    drain grace expires, the same ladder runs over the remaining
//!    sessions under the offer's [`ExpirationPolicy`] — `AFTER_COMMIT`
//!    waits for the transaction boundary (never severing a live
//!    transaction), `IMMEDIATE` is the last resort, `AFTER_CLOSE` never
//!    forces;
//! 4. the old namespace is unloaded only when
//!    [`crate::tracker::ConnectionTracker::drained`] reports true.
//!
//! Downgrade is the same machinery run in the other direction: a
//! rollback offer re-activates the depot-held prior image (a
//! zero-transfer revalidation) and the failed version drains
//! symmetrically — only [`SwapStats::downgrades`] tells them apart.

use std::time::Duration;

use driverkit::NamespaceId;
use drivolution_core::{DriverVersion, ExpirationPolicy};

use crate::bootloader::Bootloader;

/// Reason attached to connections closed by the drain-deadline ladder.
const ESCALATION_REASON: &str =
    "coexistence window expired; expiration policy enforced by swap coordinator";

/// Tuning for the coexistence window a driver swap opens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwapConfig {
    /// How long old sessions may keep executing on the retired driver
    /// before the offer's expiration policy is enforced on the
    /// stragglers.
    pub drain_grace: Duration,
    /// Coordinator tick cadence while at least one window is open.
    pub tick_every: Duration,
}

impl Default for SwapConfig {
    fn default() -> Self {
        SwapConfig {
            drain_grace: Duration::from_secs(30),
            tick_every: Duration::from_secs(1),
        }
    }
}

impl SwapConfig {
    /// A window with the given drain grace and tick cadence.
    pub fn new(drain_grace: Duration, tick_every: Duration) -> Self {
        SwapConfig {
            drain_grace,
            tick_every: tick_every.max(Duration::from_millis(1)),
        }
    }
}

/// Hot-swap counters, surfaced through
/// [`BootStats::swap`](crate::BootStats::swap).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwapStats {
    /// Coexistence windows opened (one per applied upgrade/downgrade).
    pub windows_opened: u64,
    /// Windows fully drained and retired.
    pub windows_completed: u64,
    /// Sessions that migrated transparently onto the new driver at a
    /// transaction boundary.
    pub sessions_migrated: u64,
    /// Sessions that left the old namespace without being forced
    /// (migration or voluntary close).
    pub sessions_drained: u64,
    /// Sessions claimed by the drain-deadline escalation ladder
    /// (closed on the spot, or marked close-after-commit).
    pub sessions_forced: u64,
    /// Live transactions severed by an `IMMEDIATE` escalation — the
    /// metric the zero-downtime headline demands stays 0.
    pub transactions_severed: u64,
    /// Coordinator ticks that observed *no* active namespace while a
    /// window was open — the blackout metric (§4.2's downtime, which
    /// the swap design keeps at zero).
    pub blackout_ticks: u64,
    /// Windows opened by a version downgrade (rollback path).
    pub downgrades: u64,
}

/// One namespace being drained inside a coexistence window.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DrainWindow {
    ns: NamespaceId,
    policy: ExpirationPolicy,
    deadline_ms: u64,
    initial_sessions: usize,
    forced: usize,
    escalated: bool,
}

impl Bootloader {
    /// Whether hot-swap coexistence windows are configured.
    pub fn swap_enabled(&self) -> bool {
        self.config.swap.is_some()
    }

    /// Opens a coexistence window for `old_ns` after a different
    /// namespace became active. Old sessions keep executing on their
    /// driver and migrate at transaction boundaries; the window is
    /// ticked by the lifecycle task until drained.
    pub(crate) fn swap_begin(
        &self,
        old_ns: NamespaceId,
        from: DriverVersion,
        to: DriverVersion,
        policy: ExpirationPolicy,
    ) {
        let Some(cfg) = self.config.swap else {
            return;
        };
        let now = self.net.clock().now_ms();
        let marked = self.tracker.mark_draining(old_ns);

        {
            let mut st = self.state.lock();
            let cold = st.cold();
            cold.stats.swap.windows_opened += 1;
            if to < from {
                cold.stats.swap.downgrades += 1;
            }
            cold.windows.push(DrainWindow {
                ns: old_ns,
                policy,
                deadline_ms: now + cfg.drain_grace.as_millis() as u64,
                initial_sessions: marked,
                forced: 0,
                escalated: false,
            });
        }
        // Settle instantly-drained windows (no old sessions) and arm the
        // coordinator for the rest.
        self.swap_tick();
    }

    /// One coordinator tick: complete drained windows, escalate overdue
    /// ones through the policy ladder, and put the next tick on the
    /// lifecycle task while any remain.
    pub(crate) fn swap_tick(&self) {
        let Some(cfg) = self.config.swap else {
            return;
        };
        let now = self.net.clock().now_ms();
        let windows = match self.state.lock().cold.as_deref_mut() {
            Some(cold) if !cold.windows.is_empty() => std::mem::take(&mut cold.windows),
            _ => return,
        };
        if self.registry.active().is_none() {
            // A window is open yet nobody serves new sessions: blackout.
            self.state.lock().cold().stats.swap.blackout_ticks += 1;
        }
        let mut remaining = Vec::new();
        for mut w in windows {
            if !self.tracker.drained(w.ns) && !w.escalated && now >= w.deadline_ms {
                let out = self.tracker.escalate(w.ns, w.policy, ESCALATION_REASON);
                w.forced += out.closed_now + out.close_at_commit;
                w.escalated = true;
                let mut state = self.state.lock();
                let st = &mut state.cold().stats.swap;
                st.sessions_forced += (out.closed_now + out.close_at_commit) as u64;
                st.transactions_severed += out.severed as u64;
            }
            if self.tracker.drained(w.ns) {
                // Retire + unload (activate() already retired it; this
                // prunes and drops the namespace).
                self.maybe_unload(w.ns);
                let mut state = self.state.lock();
                let st = &mut state.cold().stats.swap;
                st.windows_completed += 1;
                st.sessions_drained += w.initial_sessions.saturating_sub(w.forced) as u64;
            } else {
                remaining.push(w);
            }
        }
        let rearm = !remaining.is_empty();
        let mut st = self.state.lock();
        // Windows opened re-entrantly during this tick stay queued.
        let cold = st.cold();
        remaining.append(&mut cold.windows);
        cold.windows = remaining;
        if rearm {
            st.lifecycle.swap_at = now + cfg.tick_every.as_millis() as u64;
            st.lifecycle.arm();
        }
    }

    /// Counts one transparent boundary migration (called by the managed
    /// wrapper after it reconnects a session onto the active driver).
    pub(crate) fn note_session_migrated(&self) {
        self.state.lock().cold().stats.swap.sessions_migrated += 1;
    }
}
