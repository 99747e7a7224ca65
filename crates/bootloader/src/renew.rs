//! The lease state machine (Table 4, §4.1.3): when a renewal is due,
//! what each answer does to the running driver, the auto-renewal timer,
//! and the batch interface a fleet aggregator drives the same machine
//! through.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use driverkit::{DbUrl, DkError, DkResult, Namespace, NamespaceId};
use netsim::{Addr, TaskControl};

use drivolution_core::proto::{
    Activation, BatchReply, DrvErrCode, DrvMsg, DrvOffer, DrvRequest, LeaseTerms, RequestKind,
};
use drivolution_core::{DriverVersion, DrvError, DrvNotice, LeaseState};

use crate::bootloader::{
    no_context, push_sample, BootState, Bootloader, PollOutcome, RenewRef, NEVER,
};

/// Retry backoff after a failed renewal ("the bootloader keeps its
/// current implementation", §4.1.3 — but keeps trying).
const RENEW_RETRY: Duration = Duration::from_secs(30);

impl Bootloader {
    /// Re-arms the lifecycle task's poll against the active lease, at the
    /// earliest of two terms. With a poll cadence: the first poll tick
    /// whose turn, at the pump's present lateness, comes with the clock at
    /// or after the renew-due point (a turn that comes with the clock
    /// still short of it re-arms without polling, see
    /// [`Self::poll_has_work`]), or the next
    /// tick when [the poll may have work before](Self::polls_before_due).
    /// With auto-renewal: the renew-due point plus a spread drawn
    /// uniformly over the front of the renewal window — `renew_due +
    /// jitter(0..margin·¾)`, sampled from the scheduler's seed-reproducible
    /// jitter — while that point is still ahead (renewing inside the
    /// margin keeps licence seats instead of racing the server-side
    /// holder eviction at the expiry tick, and the spread keeps a fleet
    /// granted leases in one wave from stampeding the server at one tick;
    /// the last quarter of the margin is latency and retry slack), or one
    /// retry interval out when that point has passed or a renewal is owed
    /// (the driver was kept). With no active lease the poll has nothing
    /// to do. Whoever drives the renewals from outside
    /// ([`on_renewal_due`](Self::on_renewal_due)) is told the new deadline.
    pub(crate) fn sync_lease_timer(&self) {
        self.report_renewal_deadline();
        let policy = self.config.lifecycle;
        let now = self.net.clock().now_ms();
        let mut st = self.state.lock();
        let owed = st.renew_owed;
        let wake_now = self.polls_before_due(&st);
        let l = &mut st.lifecycle;
        let Some(task) = &l.task else {
            return;
        };
        let lease = self
            .registry
            .active()
            .map(|ns| (ns.lease.renew_due_at_ms(), ns.lease.renew_margin_ms()));
        let Some((renew_at, margin)) = lease else {
            l.poll_at = NEVER;
            l.arm();
            return;
        };
        let poll = policy.poll_every.map_or(NEVER, |every| {
            let from = if wake_now {
                now + 1
            } else {
                renew_at.max(now + 1) - l.late_ms
            };
            l.tick_at_or_after(from, every.as_millis() as u64)
        });
        let timer = if !policy.auto_renew {
            NEVER
        } else if renew_at > now && !owed {
            if l.drawn.0 != renew_at {
                l.drawn = (renew_at, renew_at + task.jitter(margin - margin / 4));
            }
            l.drawn.1
        } else {
            now + RENEW_RETRY.as_millis() as u64
        };
        l.poll_at = poll.min(timer);
        l.arm();
    }

    /// Whether a poll may have work before the lease turns renew-due: a
    /// failed renewal is owed, or a notify channel is open (a pushed
    /// notice may be waiting).
    fn polls_before_due(&self, st: &BootState) -> bool {
        st.renew_owed || (self.config.open_notify_channel && st.pipe().is_some())
    }

    /// Whether the lifecycle task's poll, due with the clock at `now`, has
    /// work: [it may before renew-due](Self::polls_before_due), or the
    /// active lease is renew-due. The poll term allows for the pump
    /// running late (each request charges its round trip to the shared
    /// clock, so a renewal wave leaves the clock ahead of the turns); a
    /// turn that comes with the clock still short of renew-due re-arms
    /// instead, so a lease renews when it turns renew-due however late the
    /// pump runs.
    pub(crate) fn poll_has_work(&self, now: u64) -> bool {
        self.polls_before_due(&self.state.lock())
            || (self.registry.active()).is_some_and(|ns| ns.lease.renew_due_at_ms() <= now)
    }

    /// Tells whoever drives the renewals from outside
    /// ([`on_renewal_due`](Self::on_renewal_due)) this client's next
    /// renewal deadline, with the state guard dropped: its lease's
    /// renew-due point, or 0 (at any moment) when a renewal is owed, a
    /// notify channel is open (a pushed notice may be waiting) or no
    /// lease is active. Before it, [`due_renewal`](Self::due_renewal)
    /// answers `None`.
    pub(crate) fn report_renewal_deadline(&self) {
        let (report, at) = {
            let st = self.state.lock();
            let Some(report) = st.renewal_due.clone() else {
                return;
            };
            let wake_now = self.polls_before_due(&st);
            let at = match self.registry.active() {
                Some(ns) if !wake_now => ns.lease.renew_due_at_ms(),
                _ => 0,
            };
            (report, at)
        };
        report(at);
    }

    /// Hands this client's next renewal deadline to `report`, now and
    /// after every lease, owed renewal, notify channel or context change:
    /// the virtual instant its lease turns renew-due, or 0 when a renewal
    /// may be due at any moment (one is owed, a notify channel is open, or
    /// no lease is active). A fleet aggregator that drives the client's
    /// renewals asks it only once that instant has passed. One driver per
    /// client: a later call replaces the earlier one.
    pub fn on_renewal_due(&self, report: impl Fn(u64) + Send + Sync + 'static) {
        self.state.lock().renewal_due = Some(Arc::new(report));
        self.report_renewal_deadline();
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
    /// scheduler-registered lifecycle task calls exactly this when its
    /// poll is due, so tests and harnesses that hand-crank the
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
        let st = &mut *st;
        let ours = st.context.as_ref().map(|(url, _)| url.database());
        if let Some(cold) = st.cold.as_deref_mut() {
            if let Some(pipe) = &cold.pipe {
                while let Ok(Some(raw)) = pipe.try_recv() {
                    if let Ok(notice) = DrvNotice::decode(raw) {
                        if ours == Some(notice_database(&notice)) {
                            force_renew = true;
                        }
                    }
                }
                if !pipe.is_open() {
                    cold.pipe = None;
                }
            }
        }
        force_renew || st.renew_owed
    }

    /// The renewal this bootloader owes right now — the one trigger the
    /// poll path and the batch interface share: the active namespace, or
    /// `None` when no driver is active, no connection context names the
    /// server, or the lease is still valid and neither a pushed notice
    /// nor a failed renewal forced one. Counts as a renewal attempt.
    fn due_renewal(&self) -> Option<Namespace> {
        let force_renew = self.drain_notices();
        let ns = self.registry.active()?;
        if !force_renew && ns.lease.state(self.net.clock().now_ms()) == LeaseState::Valid {
            return None;
        }
        let mut st = self.state.lock();
        st.context.as_ref()?;
        push_sample(&mut st.renewal_times, self.net.clock().now_ms());
        Some(ns)
    }

    /// The request renewing `ns`, built from the connection context in
    /// place, under the state lock.
    fn renewal_request(&self, ns: &Namespace) -> DkResult<DrvRequest> {
        let kind = RequestKind::Renewal {
            current: ns.driver_id,
        };
        let st = self.state.lock();
        let (url, props) = st.context.as_ref().ok_or_else(no_context)?;
        Ok(self.build_request(kind, url, props))
    }

    fn maintenance(self: &Arc<Self>) -> PollOutcome {
        let Some(ns) = self.due_renewal() else {
            return PollOutcome::Idle;
        };
        let url = self
            .state
            .lock()
            .context
            .as_ref()
            .map(|(url, _)| url.clone());
        let Some(url) = url else {
            return PollOutcome::Idle;
        };
        match self.renew(&url, &ns) {
            Ok((server, DrvMsg::Offer(offer))) => self.apply_lone_offer(&ns, &server, &offer, None),
            Ok((server, DrvMsg::OfferFile { offer, payload })) => {
                self.apply_lone_offer(&ns, &server, &offer, Some(payload))
            }
            Ok((server, DrvMsg::Renewed(terms))) => self.apply_renewed(&ns, &server, &terms),
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

    /// One renewal exchange for `ns`: a `RENEW_REF` when the request it
    /// would send is the one the server last granted this client, else
    /// the full request ([`ask`](Self::ask)). A token that is current
    /// (`BootState::token_zone`) goes out without the request being
    /// built. A server that keeps no such request makes the client forget
    /// its token, and one that refuses the frame makes it stop sending
    /// references; either way the full request goes out in the same
    /// attempt.
    fn renew(&self, url: &DbUrl, ns: &Namespace) -> DkResult<(Addr, DrvMsg)> {
        let zone = self.zone();
        let current = {
            let st = self.state.lock();
            match st.renew_ref {
                RenewRef::Token(token)
                    if st.token_zone.as_ref() == Some(&zone) && self.config.depot.is_none() =>
                {
                    Some(token)
                }
                _ => None,
            }
        };
        let (token, req) = match current {
            Some(token) => (token, None),
            None => {
                let req = self.renewal_request(ns)?;
                (req.context_digest(), Some(req))
            }
        };
        if self.state.lock().renew_ref == RenewRef::Token(token) {
            let current = ns.driver_id;
            let frame = DrvMsg::RenewRef { current, token }.encode();
            let fallback = match self.send_new_tag(url, frame)? {
                Some((
                    _,
                    DrvMsg::Error {
                        code: DrvErrCode::ResendInFull,
                        ..
                    },
                )) => RenewRef::Unknown,
                Some(answered) => return Ok(answered),
                None => RenewRef::Refused,
            };
            self.state.lock().renew_ref = fallback;
        }
        let req = match req {
            Some(req) => req,
            None => self.renewal_request(ns)?,
        };
        let zone = req.zone.clone();
        let answered = self.ask(url, req)?;
        if let (_, DrvMsg::Offer(_) | DrvMsg::OfferFile { .. }) = answered {
            self.state.lock().offered(token, zone);
        }
        Ok(answered)
    }

    /// Applies the offer a lone renewal drew, `file` being the wrapped
    /// file its answer carried, and sends the upgrade's activation report
    /// alone.
    fn apply_lone_offer(
        self: &Arc<Self>,
        ns: &Namespace,
        server: &Addr,
        offer: &DrvOffer,
        file: Option<Bytes>,
    ) -> PollOutcome {
        let (outcome, report) = self.apply_renewal_offer(ns, server, offer, file);
        if let Some(report) = report {
            self.send_activation_report(report);
        }
        outcome
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
    /// individual reply (with `file`, the wrapped file, when the answer
    /// carried it) or inside an `OFFER_BATCH`, with the activation
    /// report an upgrade owes the server when reports are configured:
    /// the caller sends it alone or hands it to whoever batches it.
    fn apply_renewal_offer(
        self: &Arc<Self>,
        ns: &Namespace,
        server: &Addr,
        offer: &DrvOffer,
        file: Option<Bytes>,
    ) -> (PollOutcome, Option<Activation>) {
        if offer.same_driver {
            return (self.apply_renewed(ns, server, &offer.terms()), None);
        }
        self.state.lock().renew_owed = false;
        // UPGRADE: download, switch new connects, transition old
        // connections per the offer's expiration policy, unload.
        let from = ns.image.version;
        match self.install_offer(server, offer, file) {
            Ok(new_ns) => {
                let to = self
                    .registry
                    .get(new_ns)
                    .map(|n| n.image.version)
                    .unwrap_or_default();
                if self.registry.activate(new_ns).is_err() {
                    return (PollOutcome::KeptAfterFailure, None);
                }
                self.state.lock().prefer(server);
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
                let report = if self.config.report_activation {
                    let verdict = self.run_activation_check(new_ns);
                    self.activation_report(offer, Some(to), verdict)
                } else {
                    None
                };
                (PollOutcome::Upgraded { from, to }, report)
            }
            Err(e) => {
                // A transfer the network cut short says nothing of the
                // driver: the renewal stays owed, as when the exchange
                // itself fails, and a rollout hears only of an install
                // that fails on its bytes.
                let cut_short = matches!(e, DkError::Drv(DrvError::Net(_)));
                {
                    let mut st = self.state.lock();
                    st.stats.failed_renewals += 1;
                    st.renew_owed |= cut_short;
                }
                let report = if self.config.report_activation && !cut_short {
                    let verdict = Err(format!("driver install failed: {e}"));
                    self.activation_report(offer, None, verdict)
                } else {
                    None
                };
                (PollOutcome::KeptAfterFailure, report)
            }
        }
    }

    /// RENEW: keep the driver, restart the lease window under `terms`.
    fn apply_renewed(&self, ns: &Namespace, server: &Addr, terms: &LeaseTerms) -> PollOutcome {
        if let Ok(lease) = self.lease_of(terms) {
            let _ = self.registry.set_lease(ns.id, lease);
        }
        let mut st = self.state.lock();
        st.prefer(server);
        st.renew_owed = false;
        st.stats.renewals += 1;
        PollOutcome::Renewed
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
    pub fn batch_renewal_entry(self: &Arc<Self>) -> Option<(String, Arc<DrvRequest>)> {
        let req = self.batch_request(&self.due_renewal()?).ok()?;
        Some((self.local.host().to_string(), req))
    }

    /// The request renewing `ns` in a batch: the last one while it is
    /// still the one [`renewal_request`](Self::renewal_request) would
    /// build, else a new one, kept.
    fn batch_request(&self, ns: &Namespace) -> DkResult<Arc<DrvRequest>> {
        let kind = RequestKind::Renewal {
            current: ns.driver_id,
        };
        let mut st = self.state.lock();
        let (url, props) = st.context.as_ref().ok_or_else(no_context)?;
        if let Some(kept) = &st.batch_request {
            let depot = self.config.depot.as_ref();
            if kept.kind == kind
                && kept.have == depot.and_then(|d| d.have_summary(url.database()))
                && kept.zone == self.zone()
            {
                return Ok(Arc::clone(kept));
            }
        }
        let req = Arc::new(self.build_request(kind, url, props));
        st.batch_request = Some(Arc::clone(&req));
        Ok(req)
    }

    /// Keeps `req`, the value a fleet's aggregator shares among clients
    /// whose batched renewal requests are equal, in place of this
    /// client's own equal one, so the fleet holds one copy.
    pub fn share_renewal_request(&self, req: &Arc<DrvRequest>) {
        let mut st = self.state.lock();
        let equal = |kept: &Arc<DrvRequest>| !Arc::ptr_eq(kept, req) && **kept == **req;
        if st.batch_request.as_ref().is_some_and(equal) {
            st.batch_request = Some(Arc::clone(req));
        }
    }

    /// Applies one reply from an `OFFER_BATCH` to this bootloader,
    /// mirroring exactly what an individually exchanged renewal would
    /// have done: same-driver offers renew the lease, other offers
    /// upgrade, and error replies revoke. Re-arms the lease timer.
    ///
    /// An upgrade's activation report is not sent: it comes back beside
    /// the outcome, for the aggregator to carry in its tick's
    /// `ACTIVATION_BATCH` (or to hand back to
    /// [`send_activation_report`](Self::send_activation_report)).
    pub fn apply_batch_offer(
        self: &Arc<Self>,
        server: &Addr,
        reply: &BatchReply,
    ) -> (PollOutcome, Option<Activation>) {
        let Some(ns) = self.registry.active() else {
            return (PollOutcome::Idle, None);
        };
        let applied = match reply {
            Ok(offer) => self.apply_renewal_offer(&ns, server, offer, None),
            Err(_) => {
                self.apply_revoke(&ns);
                (PollOutcome::Revoked, None)
            }
        };
        self.sync_lease_timer();
        applied
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

    /// Counts an upgrade's activation verdict and builds the report
    /// that tells the server how it went, so staged-rollout health gates
    /// have real signal: `None` when no connection context names the
    /// database.
    fn activation_report(
        &self,
        offer: &DrvOffer,
        version: Option<DriverVersion>,
        verdict: Result<(), String>,
    ) -> Option<Activation> {
        let (ok, detail) = match verdict {
            Ok(()) => (true, String::new()),
            Err(detail) => (false, detail),
        };
        let mut st = self.state.lock();
        let counts = &mut st.cold().stats;
        counts.activation_reports += 1;
        if !ok {
            counts.activation_failures += 1;
        }
        let (url, _) = st.context.as_ref()?;
        Some(Activation {
            database: url.database().to_string(),
            driver: offer.driver_id,
            version,
            ok,
            detail,
        })
    }

    /// Sends `report` alone, as this client's `ACTIVATION_REPORT`. A
    /// report no server answered is sent again every renewal-retry
    /// interval (30 s) by a scheduler task that retires once one does:
    /// a staged rollout counts a host only by its report, so a lost one
    /// would hold its wave open for good. The report never touches the
    /// lease state machine.
    pub fn send_activation_report(self: &Arc<Self>, report: Activation) {
        if self.report_answered(&report) {
            return;
        }
        self.net.scheduler().owned(
            self,
            Some(RENEW_RETRY),
            format!("activation-report {}", self.local),
            move |boot| {
                if boot.report_answered(&report) {
                    Ok(TaskControl::Done)
                } else {
                    Err("no server answered the activation report".to_string())
                }
            },
        );
    }

    /// Sends `report` once; `false` when no server answered it with a
    /// frame. `true` with no connection context: there is no one to tell.
    fn report_answered(&self, report: &Activation) -> bool {
        let Some((url, _props)) = self.context() else {
            return true;
        };
        let frame = report.clone().into_report().encode();
        matches!(self.send(&url, frame), Ok(Ok(_)))
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
