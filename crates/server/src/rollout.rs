//! Staged-rollout control plane: a wave orchestrator with health gates
//! and automatic rollback.
//!
//! The paper makes driver upgrades a one-INSERT operation; at fleet
//! scale the missing piece is *blast-radius control*. The
//! [`RolloutOrchestrator`] applies the zero-downtime upgrade discipline
//! of Saur et al. (canary → observe → widen → roll back on regression)
//! to driver distribution:
//!
//! * the registered fleet is [partitioned](partition) into a canary
//!   wave, one or more percentage waves, and a final full-fleet wave;
//! * the server resolves every request against the orchestrator, so
//!   only hosts whose wave has opened are offered the new driver —
//!   everyone else keeps renewing the prior one;
//! * clients report driver activation outcomes
//!   (`ACTIVATION_REPORT`), and each wave advance is gated on a
//!   minimum success fraction and a maximum error rate over the wave's
//!   observation window;
//! * a tripped gate halts the rollout and rolls every upgraded client
//!   back to the prior version at its next renewal. Client depots still
//!   hold the prior image, so rollback is a zero-transfer revalidation
//!   — no bytes move.
//!
//! The orchestrator drives itself as a `netsim::sched` task: one
//! periodic evaluation tick owns wave-advance timing and gate checks,
//! and retires itself once the rollout settles (complete or rolled
//! back).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use netsim::{Clock, Network, TaskControl, TaskHandle};

use drivolution_core::DriverId;

/// How the fleet is split into waves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RolloutPlan {
    /// Number of canary hosts in the first wave (clamped to the fleet
    /// size, minimum 1).
    pub canary: usize,
    /// Percentage waves after the canary: each entry upgrades
    /// `ceil(fleet * pct / 100)` further hosts. Whatever remains forms
    /// the final full-fleet wave.
    pub wave_pcts: Vec<u32>,
}

impl Default for RolloutPlan {
    fn default() -> Self {
        RolloutPlan {
            canary: 1,
            wave_pcts: vec![10, 25],
        }
    }
}

/// Health-gate and pacing knobs.
#[derive(Clone, Debug)]
pub struct RolloutConfig {
    /// Cadence of the orchestrator's evaluation task.
    pub evaluate_every: Duration,
    /// Minimum time a wave stays open (its observation window) before
    /// it can pass its gate.
    pub observe: Duration,
    /// Fraction of a wave's members that must report successful
    /// activation before the next wave opens.
    pub min_success_fraction: f64,
    /// Maximum tolerated activation error rate (`err / (ok + err)`).
    /// Crossing it halts the rollout and triggers rollback.
    pub max_error_rate: f64,
    /// Reports required before the error gate can trip, so a single
    /// early failure on a tiny sample does not halt a healthy rollout.
    pub min_reports: u64,
}

impl Default for RolloutConfig {
    fn default() -> Self {
        RolloutConfig {
            evaluate_every: Duration::from_secs(5),
            observe: Duration::from_secs(60),
            min_success_fraction: 0.9,
            max_error_rate: 0.05,
            min_reports: 3,
        }
    }
}

/// Where the rollout currently stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RolloutPhase {
    /// Wave `i` (0 = canary) is open; earlier waves are upgraded.
    Wave(usize),
    /// Every wave passed its gate: the whole fleet targets the new
    /// driver.
    Complete,
    /// A health gate tripped while the given wave was open; every host
    /// is rolled back to the prior driver.
    RolledBack {
        /// The wave whose gate tripped.
        failed_wave: usize,
    },
}

/// Per-wave snapshot for status reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaveStatus {
    /// Hosts in this wave.
    pub members: usize,
    /// Distinct members that reported successful activation.
    pub ok: usize,
    /// Distinct members that reported failed activation.
    pub err: usize,
    /// Virtual time the wave opened, if it has.
    pub opened_at_ms: Option<u64>,
}

/// Full status snapshot of a rollout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RolloutStatus {
    /// Current phase.
    pub phase: RolloutPhase,
    /// Per-wave counters, in wave order.
    pub waves: Vec<WaveStatus>,
    /// Virtual time the rollout completed, if it has.
    pub completed_at_ms: Option<u64>,
    /// Virtual time a gate tripped, if one has.
    pub halted_at_ms: Option<u64>,
    /// Human-readable reason for a halt.
    pub halt_reason: Option<String>,
}

/// Partitions `hosts` into rollout waves: canary first, then one wave
/// per percentage, then the remainder as the full-fleet wave. Hosts are
/// sorted and deduplicated, so every registered host lands in exactly
/// one wave and the canary is disjoint from all later waves, for any
/// fleet size and percentage schedule. Empty waves are dropped.
pub fn partition(hosts: &[String], plan: &RolloutPlan) -> Vec<Vec<String>> {
    let mut sorted: Vec<String> = hosts.to_vec();
    sorted.sort();
    sorted.dedup();
    let n = sorted.len();
    if n == 0 {
        return Vec::new();
    }
    let mut waves = Vec::new();
    let canary = plan.canary.clamp(1, n);
    let mut offset = 0usize;
    waves.push(sorted[..canary].to_vec());
    offset += canary;
    for pct in &plan.wave_pcts {
        if offset >= n {
            break;
        }
        // ceil(n * pct / 100), at least one host, at most the remainder.
        let take = ((n as u64 * u64::from(*pct)).div_ceil(100) as usize)
            .max(1)
            .min(n - offset);
        waves.push(sorted[offset..offset + take].to_vec());
        offset += take;
    }
    if offset < n {
        waves.push(sorted[offset..].to_vec());
    }
    waves
}

struct WaveState {
    members: Vec<String>,
    opened_at_ms: Option<u64>,
    ok_hosts: HashSet<String>,
    err_hosts: HashSet<String>,
}

struct RolloutState {
    waves: Vec<WaveState>,
    /// host → wave index, for O(1) resolve and report routing.
    member_wave: HashMap<String, usize>,
    phase: RolloutPhase,
    completed_at_ms: Option<u64>,
    halted_at_ms: Option<u64>,
    halt_reason: Option<String>,
    /// The evaluation tick [`RolloutOrchestrator::launch`] registers.
    task: Option<TaskHandle>,
    halt_hook: Option<HaltHook>,
}

/// Function invoked (with the rollout's database) exactly once when a
/// health gate trips and the rollout rolls back.
type HaltHook = Arc<dyn Fn(&str) + Send + Sync>;

/// Orchestrates one staged rollout from a prior driver to a new one
/// over a fixed registered fleet. Attach it to a
/// [`DrivolutionServer`](crate::DrivolutionServer) with
/// [`attach_rollout`](crate::DrivolutionServer::attach_rollout); the
/// server then resolves every offer through
/// [`resolve`](Self::resolve) and feeds activation reports back via
/// [`report_activation`](Self::report_activation).
pub struct RolloutOrchestrator {
    database: String,
    from_id: DriverId,
    to_id: DriverId,
    config: RolloutConfig,
    clock: Clock,
    state: Mutex<RolloutState>,
}

impl std::fmt::Debug for RolloutOrchestrator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("RolloutOrchestrator")
            .field("database", &self.database)
            .field("from", &self.from_id)
            .field("to", &self.to_id)
            .field("phase", &st.phase)
            .field("waves", &st.waves.len())
            .finish()
    }
}

impl RolloutOrchestrator {
    /// Creates an orchestrator with the canary wave already open (at
    /// the clock's current time). Prefer [`launch`](Self::launch),
    /// which also registers the evaluation task.
    pub fn new(
        clock: Clock,
        database: impl Into<String>,
        from_id: DriverId,
        to_id: DriverId,
        hosts: &[String],
        plan: &RolloutPlan,
        config: RolloutConfig,
    ) -> Self {
        let waves: Vec<WaveState> = partition(hosts, plan)
            .into_iter()
            .map(|members| WaveState {
                members,
                opened_at_ms: None,
                ok_hosts: HashSet::new(),
                err_hosts: HashSet::new(),
            })
            .collect();
        let mut member_wave = HashMap::new();
        for (i, w) in waves.iter().enumerate() {
            for h in &w.members {
                member_wave.insert(h.clone(), i);
            }
        }
        let now = clock.now_ms();
        let mut state = RolloutState {
            waves,
            member_wave,
            phase: RolloutPhase::Complete,
            completed_at_ms: None,
            halted_at_ms: None,
            halt_reason: None,
            task: None,
            halt_hook: None,
        };
        if state.waves.is_empty() {
            // An empty fleet has nothing to stage.
            state.completed_at_ms = Some(now);
        } else {
            state.waves[0].opened_at_ms = Some(now);
            state.phase = RolloutPhase::Wave(0);
        }
        RolloutOrchestrator {
            database: database.into(),
            from_id,
            to_id,
            config,
            clock,
            state: Mutex::new(state),
        }
    }

    /// Creates the orchestrator and registers its evaluation tick on
    /// the network's scheduler. The task holds only a weak reference
    /// and retires itself once the rollout settles (or the orchestrator
    /// is dropped).
    pub fn launch(
        net: &Network,
        database: impl Into<String>,
        from_id: DriverId,
        to_id: DriverId,
        hosts: &[String],
        plan: &RolloutPlan,
        config: RolloutConfig,
    ) -> Arc<Self> {
        let every = config.evaluate_every;
        let ro = Arc::new(Self::new(
            net.clock().clone(),
            database,
            from_id,
            to_id,
            hosts,
            plan,
            config,
        ));
        let handle = net
            .scheduler()
            .owned(&ro, Some(every), "rollout-evaluate", |ro| {
                ro.evaluate();
                if ro.is_settled() {
                    Ok(TaskControl::Done)
                } else {
                    Ok(TaskControl::Continue)
                }
            });
        ro.state.lock().task = Some(handle);
        ro
    }

    /// The database this rollout governs.
    pub fn database(&self) -> &str {
        &self.database
    }

    /// The driver being rolled out.
    pub fn target(&self) -> DriverId {
        self.to_id
    }

    /// The prior driver (the rollback target).
    pub fn prior(&self) -> DriverId {
        self.from_id
    }

    /// Whether `id` is one of the two drivers this rollout manages.
    pub fn manages(&self, id: DriverId) -> bool {
        id == self.from_id || id == self.to_id
    }

    /// The driver `host` should be offered right now: the new driver
    /// once the host's wave has opened (and the rollout has not rolled
    /// back), the prior driver otherwise. Hosts outside the registered
    /// fleet follow the fleet: prior driver until the rollout
    /// completes.
    pub fn resolve(&self, host: &str) -> DriverId {
        let st = self.state.lock();
        match st.phase {
            RolloutPhase::Complete => self.to_id,
            RolloutPhase::RolledBack { .. } => self.from_id,
            RolloutPhase::Wave(open) => match st.member_wave.get(host) {
                Some(&w) if w <= open => self.to_id,
                _ => self.from_id,
            },
        }
    }

    /// Records a client's activation report for the rollout target.
    /// Reports about other drivers (including the rollback target) and
    /// from unregistered hosts are ignored; repeat reports from one
    /// host count once (latest outcome wins is *not* needed — first
    /// outcome sticks).
    pub fn report_activation(&self, host: &str, driver: DriverId, ok: bool) {
        if driver != self.to_id {
            return;
        }
        let mut st = self.state.lock();
        let Some(&w) = st.member_wave.get(host) else {
            return;
        };
        let wave = &mut st.waves[w];
        if wave.ok_hosts.contains(host) || wave.err_hosts.contains(host) {
            return;
        }
        if ok {
            wave.ok_hosts.insert(host.to_string());
        } else {
            wave.err_hosts.insert(host.to_string());
        }
    }

    /// Installs the rollback hook, replacing any previous one. It fires
    /// exactly once, outside the state lock, when a health gate trips —
    /// [`attach_rollout`](crate::DrivolutionServer::attach_rollout) wires
    /// it to an upgrade notice so clients with dedicated channels
    /// re-renew (and drain the failed version) immediately instead of at
    /// their next lease expiry.
    pub fn on_rollback<F>(&self, hook: F)
    where
        F: Fn(&str) + Send + Sync + 'static,
    {
        self.state.lock().halt_hook = Some(Arc::new(hook));
    }

    /// Whether the rollout reached a terminal phase.
    pub fn is_settled(&self) -> bool {
        !matches!(self.state.lock().phase, RolloutPhase::Wave(_))
    }

    /// One evaluation tick: check the open wave's health gate, halt and
    /// roll back on a tripped gate, advance (or complete) once the
    /// observation window has elapsed and the success gate passes.
    /// Normally driven by the scheduler task [`launch`](Self::launch)
    /// registers; exposed for direct-drive tests.
    fn evaluate(&self) {
        let now = self.clock.now_ms();
        let mut st = self.state.lock();
        let RolloutPhase::Wave(open) = st.phase else {
            return;
        };

        // Error gate first, over every opened wave: a late regression
        // reported by an earlier wave must halt the rollout too.
        let (mut ok_total, mut err_total) = (0u64, 0u64);
        for w in st.waves.iter().take(open + 1) {
            ok_total += w.ok_hosts.len() as u64;
            err_total += w.err_hosts.len() as u64;
        }
        let reports = ok_total + err_total;
        if reports >= self.config.min_reports
            && err_total as f64 > self.config.max_error_rate * reports as f64
        {
            st.phase = RolloutPhase::RolledBack { failed_wave: open };
            st.halted_at_ms = Some(now);
            st.halt_reason = Some(format!(
                "activation error rate {err_total}/{reports} exceeded {:.2}% in wave {open}",
                self.config.max_error_rate * 100.0
            ));
            let hook = st.halt_hook.clone();
            drop(st);
            if let Some(hook) = hook {
                hook(&self.database);
            }
            return;
        }

        // Advance gate: observation window elapsed and enough of the
        // open wave activated successfully.
        let wave = &st.waves[open];
        let opened_at = wave.opened_at_ms.unwrap_or(now);
        if now.saturating_sub(opened_at) < self.config.observe.as_millis() as u64 {
            return;
        }
        let need = (wave.members.len() as f64 * self.config.min_success_fraction).ceil() as usize;
        if wave.ok_hosts.len() < need {
            return;
        }
        if open + 1 < st.waves.len() {
            st.waves[open + 1].opened_at_ms = Some(now);
            st.phase = RolloutPhase::Wave(open + 1);
        } else {
            st.phase = RolloutPhase::Complete;
            st.completed_at_ms = Some(now);
        }
    }

    /// Status snapshot (phase, per-wave counters, timing).
    pub fn status(&self) -> RolloutStatus {
        let st = self.state.lock();
        RolloutStatus {
            phase: st.phase,
            waves: st
                .waves
                .iter()
                .map(|w| WaveStatus {
                    members: w.members.len(),
                    ok: w.ok_hosts.len(),
                    err: w.err_hosts.len(),
                    opened_at_ms: w.opened_at_ms,
                })
                .collect(),
            completed_at_ms: st.completed_at_ms,
            halted_at_ms: st.halted_at_ms,
            halt_reason: st.halt_reason.clone(),
        }
    }
}

impl Drop for RolloutOrchestrator {
    fn drop(&mut self) {
        if let Some(h) = self.state.lock().task.take() {
            h.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("app{i:04}")).collect()
    }

    #[test]
    fn partition_covers_every_host_exactly_once() {
        let fleet = hosts(100);
        let plan = RolloutPlan {
            canary: 2,
            wave_pcts: vec![10, 25],
        };
        let waves = partition(&fleet, &plan);
        assert_eq!(waves.len(), 4);
        assert_eq!(waves[0].len(), 2);
        assert_eq!(waves[1].len(), 10);
        assert_eq!(waves[2].len(), 25);
        assert_eq!(waves[3].len(), 63);
        let mut seen = HashSet::new();
        for w in &waves {
            for h in w {
                assert!(seen.insert(h.clone()), "host {h} in two waves");
            }
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn partition_handles_tiny_fleets_and_oversized_schedules() {
        let waves = partition(
            &hosts(3),
            &RolloutPlan {
                canary: 10,
                wave_pcts: vec![50, 50, 50],
            },
        );
        // Canary swallows the whole fleet.
        assert_eq!(waves, vec![hosts(3)]);
        assert!(partition(&[], &RolloutPlan::default()).is_empty());
    }

    fn rig(n: usize, config: RolloutConfig) -> (RolloutOrchestrator, Clock) {
        let clock = Clock::simulated();
        let ro = RolloutOrchestrator::new(
            clock.clone(),
            "fleetdb",
            DriverId(1),
            DriverId(2),
            &hosts(n),
            &RolloutPlan {
                canary: 1,
                wave_pcts: vec![20, 30],
            },
            config,
        );
        (ro, clock)
    }

    fn report_wave_ok(ro: &RolloutOrchestrator, wave: usize) {
        let st = ro.status();
        let mut offset = 0;
        for w in &st.waves[..wave] {
            offset += w.members;
        }
        for h in &hosts(offset + st.waves[wave].members)[offset..] {
            ro.report_activation(h, DriverId(2), true);
        }
    }

    #[test]
    fn waves_advance_on_healthy_gates_until_complete() {
        let config = RolloutConfig {
            observe: Duration::from_secs(10),
            min_reports: 2,
            ..RolloutConfig::default()
        };
        let (ro, clock) = rig(10, config);
        assert_eq!(ro.status().phase, RolloutPhase::Wave(0));
        // Only the canary resolves to the new driver.
        assert_eq!(ro.resolve("app0000"), DriverId(2));
        assert_eq!(ro.resolve("app0005"), DriverId(1));

        // Gate needs both the window and the success reports.
        clock.advance_ms(11_000);
        ro.evaluate();
        assert_eq!(ro.status().phase, RolloutPhase::Wave(0), "no reports yet");
        report_wave_ok(&ro, 0);
        ro.evaluate();
        assert_eq!(ro.status().phase, RolloutPhase::Wave(1));

        report_wave_ok(&ro, 1);
        ro.evaluate();
        assert_eq!(
            ro.status().phase,
            RolloutPhase::Wave(1),
            "window not elapsed"
        );
        clock.advance_ms(11_000);
        ro.evaluate();
        assert_eq!(ro.status().phase, RolloutPhase::Wave(2));

        report_wave_ok(&ro, 2);
        clock.advance_ms(11_000);
        ro.evaluate();
        report_wave_ok(&ro, 3);
        clock.advance_ms(11_000);
        ro.evaluate();
        let st = ro.status();
        assert_eq!(st.phase, RolloutPhase::Complete);
        assert!(st.completed_at_ms.is_some());
        // Wave open times are nondecreasing.
        let opens: Vec<u64> = st.waves.iter().map(|w| w.opened_at_ms.unwrap()).collect();
        assert!(opens.windows(2).all(|w| w[0] <= w[1]), "{opens:?}");
        assert_eq!(ro.resolve("app0005"), DriverId(2));
        assert!(ro.is_settled());
    }

    #[test]
    fn error_spike_halts_and_rolls_back() {
        let config = RolloutConfig {
            observe: Duration::from_secs(10),
            min_reports: 3,
            max_error_rate: 0.2,
            ..RolloutConfig::default()
        };
        let (ro, clock) = rig(10, config);
        report_wave_ok(&ro, 0);
        clock.advance_ms(11_000);
        ro.evaluate();
        assert_eq!(ro.status().phase, RolloutPhase::Wave(1));
        // Wave 1 (2 members) reports one ok, one failure; with the
        // canary's ok that is 1 err / 3 reports = 33% > 20%.
        ro.report_activation("app0001", DriverId(2), true);
        ro.report_activation("app0002", DriverId(2), false);
        ro.evaluate();
        let st = ro.status();
        assert_eq!(st.phase, RolloutPhase::RolledBack { failed_wave: 1 });
        assert!(st.halted_at_ms.is_some());
        assert!(st.halt_reason.as_deref().unwrap().contains("wave 1"));
        // Everyone — including the already-upgraded canary — resolves
        // back to the prior driver.
        for h in hosts(10) {
            assert_eq!(ro.resolve(&h), DriverId(1));
        }
        assert!(ro.is_settled());
    }

    #[test]
    fn halt_hook_fires_exactly_once_on_gate_trip() {
        let config = RolloutConfig {
            observe: Duration::from_secs(10),
            min_reports: 3,
            max_error_rate: 0.2,
            ..RolloutConfig::default()
        };
        let (ro, clock) = rig(10, config);
        let fired = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let seen = Arc::new(Mutex::new(Vec::new()));
        {
            let fired = fired.clone();
            let seen = seen.clone();
            ro.on_rollback(move |db| {
                fired.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                seen.lock().push(db.to_string());
            });
        }
        report_wave_ok(&ro, 0);
        clock.advance_ms(11_000);
        ro.evaluate();
        assert_eq!(fired.load(std::sync::atomic::Ordering::SeqCst), 0);
        ro.report_activation("app0001", DriverId(2), true);
        ro.report_activation("app0002", DriverId(2), false);
        ro.evaluate();
        assert_eq!(fired.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(seen.lock().as_slice(), ["fleetdb"]);
        // Further evaluations after the rollback must not re-fire.
        ro.evaluate();
        clock.advance_ms(11_000);
        ro.evaluate();
        assert_eq!(fired.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn the_halt_hook_may_call_back_into_the_orchestrator() {
        let config = RolloutConfig {
            min_reports: 1,
            max_error_rate: 0.0,
            ..RolloutConfig::default()
        };
        let (ro, _clock) = rig(10, config);
        let ro = Arc::new(ro);
        let settled = Arc::new(Mutex::new(Vec::new()));
        let (me, sink) = (Arc::downgrade(&ro), settled.clone());
        ro.on_rollback(move |_| {
            if let Some(ro) = me.upgrade() {
                sink.lock().push(ro.is_settled());
            }
        });
        ro.report_activation("app0000", DriverId(2), false);
        ro.evaluate();
        ro.evaluate();
        assert_eq!(settled.lock().as_slice(), [true]);
    }

    #[test]
    fn duplicate_and_foreign_reports_are_ignored() {
        let (ro, _clock) = rig(10, RolloutConfig::default());
        ro.report_activation("app0000", DriverId(2), true);
        ro.report_activation("app0000", DriverId(2), false);
        ro.report_activation("app0000", DriverId(2), true);
        // Reports for the prior driver and from unknown hosts don't count.
        ro.report_activation("app0001", DriverId(1), false);
        ro.report_activation("stranger", DriverId(2), false);
        let st = ro.status();
        assert_eq!(st.waves[0].ok, 1);
        assert_eq!(st.waves[0].err, 0);
        assert_eq!(st.waves.iter().map(|w| w.err).sum::<usize>(), 0);
    }

    #[test]
    fn launch_drives_itself_on_the_scheduler() {
        let net = Network::new();
        let config = RolloutConfig {
            evaluate_every: Duration::from_secs(1),
            observe: Duration::from_secs(5),
            min_reports: 1,
            ..RolloutConfig::default()
        };
        let ro = RolloutOrchestrator::launch(
            &net,
            "fleetdb",
            DriverId(1),
            DriverId(2),
            &hosts(4),
            &RolloutPlan {
                canary: 1,
                wave_pcts: vec![50],
            },
            config,
        );
        // Waves: [app0000], [app0001, app0002], [app0003].
        report_wave_ok(&ro, 0);
        net.run_until(6_000);
        assert_eq!(ro.status().phase, RolloutPhase::Wave(1));
        report_wave_ok(&ro, 1);
        net.run_until(12_000);
        assert_eq!(ro.status().phase, RolloutPhase::Wave(2));
        report_wave_ok(&ro, 2);
        net.run_until(18_000);
        assert_eq!(ro.status().phase, RolloutPhase::Complete);
        // The evaluation task retired itself after settling.
        net.run_until(60_000);
        assert_eq!(net.scheduler().task_count(), 0);
    }
}
