//! The lease state machine (Table 4, §4.1.3): when a renewal is due,
//! what each answer does to the running driver, the auto-renewal timer,
//! and the batch interface a fleet aggregator drives the same machine
//! through.

use std::sync::Arc;
use std::time::Duration;

use driverkit::{DbUrl, Namespace, NamespaceId};
use netsim::Addr;

use drivolution_core::proto::{DrvErrCode, DrvMsg, DrvOffer, DrvRequest, RequestKind};
use drivolution_core::{DriverVersion, DrvNotice, LeaseState};

use crate::bootloader::{push_sample, Bootloader, PollOutcome};

/// Retry backoff after a failed renewal ("the bootloader keeps its
/// current implementation", §4.1.3 — but keeps trying).
const RENEW_RETRY: Duration = Duration::from_secs(30);

impl Bootloader {
    /// Re-arms the auto-renewal timer against the active lease: spread
    /// uniformly inside the front of the renewal window — `renew_due +
    /// jitter(0..margin·¾)`, sampled from the scheduler's
    /// seed-reproducible jitter — when the renew-due point is still
    /// ahead (renewing inside the margin, like the poll state machine,
    /// keeps license seats instead of racing the server-side holder
    /// eviction at the expiry tick, and the spread keeps a fleet
    /// granted leases in one wave from stampeding the server at one
    /// tick; the last quarter of the margin is kept free as link-
    /// latency and retry slack so the renewal message still lands
    /// before expiry), or one retry interval out when that point has
    /// passed or a failed renewal is still owed (the driver was kept).
    /// With no active lease the timer goes quiet. The upgrade poll, with
    /// work only once the lease is renew-due, a pushed notice may be
    /// waiting or a renewal is owed, sleeps until then.
    pub(crate) fn sync_lease_timer(&self) {
        let mut st = self.state.lock();
        let owed = st.renew_owed;
        let wake_now = owed || (self.config.open_notify_channel && st.pipe.is_some());
        let tasks = &mut st.tasks;
        if tasks.poll.is_none() && tasks.lease.is_none() {
            return;
        }
        let lease = self
            .registry
            .active()
            .map(|ns| (ns.lease.renew_due_at_ms(), ns.lease.renew_margin_ms()));
        if let Some(poll) = &tasks.poll {
            poll.sleep_until(match lease {
                _ if wake_now => 0,
                Some((renew_at, _)) => renew_at,
                None => u64::MAX,
            });
        }
        let Some(handle) = tasks.lease.clone() else {
            return;
        };
        match lease {
            Some((renew_at, margin)) => {
                let now = self.clock.now_ms();
                if renew_at > now && !owed {
                    // One jitter draw per lease grant: skip when the
                    // timer is already armed for this renew-due point.
                    if tasks.lease_armed_for != Some(renew_at) || !handle.is_scheduled() {
                        tasks.lease_armed_for = Some(renew_at);
                        handle.reschedule_at_jittered(renew_at, margin.saturating_sub(margin / 4));
                    }
                } else {
                    let due = now + RENEW_RETRY.as_millis() as u64;
                    tasks.lease_armed_for = None;
                    if handle.next_due_ms() != Some(due) {
                        handle.reschedule_at(due);
                    }
                }
            }
            None => {
                tasks.lease_armed_for = None;
                handle.pause();
            }
        }
    }

    /// Drains the virtual-clock instants at which this bootloader
    /// contacted the server to renew (one entry per renewal attempt,
    /// whatever its outcome). Fleet harnesses bucket these per tick to
    /// measure the renewal burst the spread jitter is meant to flatten.
    pub fn take_renewal_times(&self) -> Vec<u64> {
        std::mem::take(&mut self.state.lock().renewal_times)
    }

    /// Drains pushed notices and runs the lease state machine once, then
    /// re-arms the auto-renewal timer against whatever lease resulted.
    ///
    /// This is the manual "run my maintenance now" entry point: the
    /// scheduler-registered upgrade-poll task and lease-renewal timer
    /// call exactly this, so tests and harnesses that hand-crank the
    /// clock keep full control, while fleets just pump
    /// [`netsim::Network::run_until`] (§3.4.2's timer thread without
    /// anybody writing one). It also runs at each `connect` ("wait
    /// lazily for an application call to trigger the check").
    pub fn poll(self: &Arc<Self>) -> PollOutcome {
        self.state.lock().stats.polls += 1;
        let outcome = self.maintenance();
        self.sync_lease_timer();
        outcome
    }

    /// Drains pushed notices off the dedicated channel; returns whether
    /// a renewal is forced: one of them concerned our database, or a
    /// failed renewal is still owed.
    fn drain_notices(&self) -> bool {
        let mut force_renew = false;
        let mut st = self.state.lock();
        if let Some(pipe) = &st.pipe {
            while let Ok(Some(raw)) = pipe.try_recv() {
                if let Ok(notice) = DrvNotice::decode(raw) {
                    let ours = st.context.as_ref().map(|(url, _)| url.database());
                    if ours == Some(notice_database(&notice)) {
                        force_renew = true;
                    }
                }
            }
            if !pipe.is_open() {
                st.pipe = None;
            }
        }
        force_renew || st.renew_owed
    }

    /// The renewal this bootloader owes right now — the one trigger the
    /// poll path and the batch interface share: `None` when no driver is
    /// active, or the lease is still valid and neither a pushed notice
    /// nor a failed renewal forced one. Counts as a renewal attempt.
    fn due_renewal(&self) -> Option<(Namespace, DbUrl, DrvRequest)> {
        let force_renew = self.drain_notices();
        let ns = self.registry.active()?;
        if !force_renew && ns.lease.state(self.clock.now_ms()) == LeaseState::Valid {
            return None;
        }
        let (url, props) = self.context()?;
        let current = ns.driver_id;
        let req = self.build_request(RequestKind::Renewal { current }, &url, &props);
        push_sample(&mut self.state.lock().renewal_times, self.clock.now_ms());
        Some((ns, url, req))
    }

    fn maintenance(self: &Arc<Self>) -> PollOutcome {
        let Some((ns, url, req)) = self.due_renewal() else {
            return PollOutcome::Idle;
        };
        match self.exchange(&url, DrvMsg::Request(req)) {
            Ok((server, DrvMsg::Offer(offer))) => self.apply_renewal_offer(&ns, server, offer),
            Ok((_server, DrvMsg::Error { .. })) => {
                // REVOKE (or no driver anymore): block new connections and
                // transition existing ones per the *current* lease policy.
                self.apply_revoke(&ns);
                PollOutcome::Revoked
            }
            // Network failure or nonsense: keep the current driver.
            _ => self.renewal_failed(),
        }
    }

    /// A renewal exchange that did not complete: the driver is kept and
    /// the renewal stays owed.
    fn renewal_failed(&self) -> PollOutcome {
        let mut st = self.state.lock();
        st.stats.failed_renewals += 1;
        st.renew_owed = true;
        PollOutcome::KeptAfterFailure
    }

    /// Applies a renewal-shaped offer, whether it arrived as an
    /// individual reply or inside an `OFFER_BATCH`.
    fn apply_renewal_offer(
        self: &Arc<Self>,
        ns: &Namespace,
        server: Addr,
        offer: DrvOffer,
    ) -> PollOutcome {
        if offer.same_driver {
            // RENEW: keep the driver, restart the lease window.
            if let Ok(lease) = self.lease_of(&offer) {
                let _ = self.registry.set_lease(ns.id, lease);
            }
            let mut st = self.state.lock();
            st.server = Some(server);
            st.renew_owed = false;
            st.stats.renewals += 1;
            return PollOutcome::Renewed;
        }
        self.state.lock().renew_owed = false;
        // UPGRADE: download, switch new connects, transition old
        // connections per the offer's expiration policy, unload.
        let from = ns.image.version;
        match self.install_offer(&server, &offer) {
            Ok(new_ns) => {
                let to = self
                    .registry
                    .get(new_ns)
                    .map(|n| n.image.version)
                    .unwrap_or_default();
                if self.registry.activate(new_ns).is_err() {
                    return PollOutcome::KeptAfterFailure;
                }
                self.state.lock().server = Some(server);
                if self.swap_enabled() {
                    // Coexistence window: old sessions keep executing on
                    // the prior driver and migrate at their next
                    // transaction boundary; the policy is enforced only
                    // on stragglers after the drain grace.
                    self.swap_begin(ns.id, from, to, offer.expiration_policy);
                } else {
                    let reason = "driver upgraded by drivolution server";
                    self.expire_sessions(ns.id, offer.expiration_policy, reason);
                }
                self.state.lock().stats.upgrades += 1;
                if self.config.report_activation {
                    let verdict = self.run_activation_check(new_ns);
                    self.send_activation_report(&offer, Some(to), verdict);
                }
                PollOutcome::Upgraded { from, to }
            }
            Err(e) => {
                self.state.lock().stats.failed_renewals += 1;
                if self.config.report_activation {
                    let verdict = Err(format!("driver install failed: {e}"));
                    self.send_activation_report(&offer, None, verdict);
                }
                PollOutcome::KeptAfterFailure
            }
        }
    }

    // --- batched renewals (aggregator interface) ------------------------

    /// The renewal request this bootloader would send right now, or
    /// `None` when no renewal is due (no active driver, or the lease is
    /// still valid and no pushed notice forced a renewal). A fleet-side
    /// aggregator collects these from every client in a zone and
    /// coalesces them into one `RENEW_BATCH` frame; replies come back
    /// through [`apply_batch_offer`](Self::apply_batch_offer). The entry
    /// carries this bootloader's host so the server attributes the
    /// license seat to the client, not the aggregator.
    pub fn batch_renewal_entry(self: &Arc<Self>) -> Option<(String, DrvRequest)> {
        let (_ns, _url, req) = self.due_renewal()?;
        Some((self.local.host().to_string(), req))
    }

    /// Applies one reply from an `OFFER_BATCH` to this bootloader,
    /// mirroring exactly what an individually exchanged renewal would
    /// have done: same-driver offers renew the lease, other offers
    /// upgrade, and error replies revoke. Re-arms the lease timer.
    pub fn apply_batch_offer(
        self: &Arc<Self>,
        server: &Addr,
        reply: Result<DrvOffer, (DrvErrCode, String)>,
    ) -> PollOutcome {
        let Some(ns) = self.registry.active() else {
            return PollOutcome::Idle;
        };
        let outcome = match reply {
            Ok(offer) => self.apply_renewal_offer(&ns, server.clone(), offer),
            Err(_) => {
                self.apply_revoke(&ns);
                PollOutcome::Revoked
            }
        };
        self.sync_lease_timer();
        outcome
    }

    /// Applies a `RENEW_BATCH` exchange that failed, at the network
    /// level or with a malformed answer, to one of its contributors:
    /// exactly what a failed individual renewal does. Re-arms the lease
    /// timer.
    pub fn apply_batch_failure(self: &Arc<Self>) -> PollOutcome {
        let outcome = self.renewal_failed();
        self.sync_lease_timer();
        outcome
    }

    /// Runs the configured post-activation self-check against the
    /// freshly activated namespace.
    fn run_activation_check(&self, ns_id: NamespaceId) -> Result<(), String> {
        let Some(check) = &self.config.activation_check else {
            return Ok(());
        };
        match self.registry.get(ns_id) {
            Some(ns) => check.run(&ns.image),
            None => Err("no active driver after upgrade".to_string()),
        }
    }

    /// Best-effort `ACTIVATION_REPORT`: tells the server how the upgrade
    /// went so staged-rollout health gates have real signal. Transport
    /// failures are swallowed — the report is advisory, never part of
    /// the lease state machine.
    fn send_activation_report(
        &self,
        offer: &DrvOffer,
        version: Option<DriverVersion>,
        verdict: Result<(), String>,
    ) {
        let (ok, detail) = match verdict {
            Ok(()) => (true, String::new()),
            Err(detail) => (false, detail),
        };
        {
            let st = &mut self.state.lock().stats;
            st.activation_reports += 1;
            if !ok {
                st.activation_failures += 1;
            }
        }
        let Some((url, _props)) = self.context() else {
            return;
        };
        let msg = DrvMsg::ActivationReport {
            database: url.database().to_string(),
            driver: offer.driver_id,
            version,
            ok,
            detail,
        };
        let _ = self.exchange(&url, msg);
    }

    fn apply_revoke(&self, ns: &Namespace) {
        {
            let mut st = self.state.lock();
            st.revoked = true;
            st.renew_owed = false;
        }
        let reason = "driver revoked and no replacement available";
        self.expire_sessions(ns.id, ns.lease.expiration_policy(), reason);
    }
}

fn notice_database(notice: &DrvNotice) -> &str {
    match notice {
        DrvNotice::DriverAvailable { database } | DrvNotice::DriverRevoked { database } => database,
    }
}
