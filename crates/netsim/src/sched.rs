//! Deterministic periodic/one-shot task scheduling over the virtual
//! clock.
//!
//! Every lifecycle beat in the Drivolution reproduction — mirror
//! heartbeats, lease auto-renewal, upgrade polling — is periodic work
//! that used to be hand-cranked by whoever owned the component. The
//! [`Scheduler`] removes that boilerplate: components register tasks
//! once ([`Scheduler::every`] / [`Scheduler::once`]) and a single
//! [`Scheduler::run_until`] pump fires them in deterministic virtual
//! time, interleaved with the message latency their own network
//! exchanges charge to the shared [`Clock`].
//!
//! Determinism: tasks fire in `(due_ms, registration order)` order, and
//! per-task jitter comes from a splitmix generator seeded from the
//! scheduler seed and the task id — the same seed and the same
//! registration sequence produce the same schedule, tick for tick.
//!
//! # Examples
//!
//! ```
//! use std::time::Duration;
//! use netsim::{Clock, Scheduler, TaskControl};
//!
//! let clock = Clock::simulated();
//! let sched = Scheduler::new(clock.clone());
//! let beats = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
//! let b = beats.clone();
//! sched.every(
//!     Duration::from_secs(5),
//!     Duration::ZERO,
//!     "heartbeat",
//!     move || {
//!         b.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
//!         Ok(TaskControl::Continue)
//!     },
//! );
//! sched.run_until(60_000);
//! assert_eq!(beats.load(std::sync::atomic::Ordering::SeqCst), 12);
//! assert_eq!(clock.now_ms(), 60_000);
//! ```

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Clock;

/// What a task tells the scheduler after a successful run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskControl {
    /// Keep the task registered (periodic tasks re-arm for the next
    /// interval; one-shot tasks go dormant until rescheduled).
    Continue,
    /// Retire the task: it is done and must not fire again (an
    /// announce-retry that finally got through, for example).
    Done,
}

/// Result of one task execution. `Err` keeps the task registered and
/// bumps its error counters — transient failures (an unreachable
/// primary, a partitioned heartbeat) are expected lifecycle events, not
/// reasons to stop trying.
pub type TaskResult = Result<TaskControl, String>;

/// Counters maintained per task across its whole lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskStats {
    /// Completed executions (successful or not).
    pub runs: u64,
    /// Executions that returned `Err`.
    pub errors: u64,
    /// Errors since the last successful run (reset on success).
    pub consecutive_errors: u64,
}

/// Converts a [`Duration`] to virtual milliseconds, the clock's unit.
fn ms(d: Duration) -> u64 {
    d.as_millis() as u64
}

#[derive(Clone, Copy, Debug)]
enum Cadence {
    Periodic { interval_ms: u64, jitter_ms: u64 },
    Once,
}

type TaskFn = Arc<dyn Fn() -> TaskResult + Send + Sync>;

struct Task {
    name: String,
    cadence: Cadence,
    f: TaskFn,
    rng: StdRng,
    /// Virtual time of the next firing; `None` while dormant, paused,
    /// cancelled, or mid-run.
    due_ms: Option<u64>,
    paused: bool,
    /// Delay left on a paused one-shot, restored on resume; `None` when
    /// the one-shot was dormant at pause time (it stays dormant).
    paused_remaining: Option<u64>,
    /// Set when the task (or anyone else) rescheduled it during its own
    /// run; the pump then leaves the explicit schedule alone.
    rearmed: bool,
    stats: TaskStats,
    last_error: Option<String>,
}

impl Task {
    fn jitter(&mut self) -> u64 {
        match self.cadence {
            Cadence::Periodic { jitter_ms, .. } if jitter_ms > 0 => {
                self.rng.gen_range(0..jitter_ms + 1)
            }
            _ => 0,
        }
    }
}

#[derive(Default)]
struct SchedState {
    tasks: HashMap<u64, Task>,
    /// Firing queue ordered by `(due_ms, task id)`: time first, then
    /// registration order as the deterministic tiebreak.
    queue: BTreeSet<(u64, u64)>,
    next_id: u64,
    seed: u64,
}

impl SchedState {
    fn enqueue(&mut self, id: u64, due: u64) {
        if let Some(t) = self.tasks.get_mut(&id) {
            if let Some(old) = t.due_ms.take() {
                self.queue.remove(&(old, id));
            }
            t.due_ms = Some(due);
            self.queue.insert((due, id));
        }
    }

    fn dequeue(&mut self, id: u64) {
        if let Some(t) = self.tasks.get_mut(&id) {
            if let Some(old) = t.due_ms.take() {
                self.queue.remove(&(old, id));
            }
        }
    }
}

struct SchedInner {
    clock: Clock,
    state: Mutex<SchedState>,
}

/// Deterministic task scheduler over a shared virtual [`Clock`].
///
/// Cloning is cheap; all clones share the task table. Each
/// [`netsim::Network`](crate::Network) owns one on its clock
/// ([`crate::Network::scheduler`]), so timers and message delivery
/// advance the same timeline.
#[derive(Clone)]
pub struct Scheduler {
    inner: Arc<SchedInner>,
}

impl fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("Scheduler")
            .field("tasks", &st.tasks.len())
            .field("scheduled", &st.queue.len())
            .finish()
    }
}

impl Scheduler {
    /// Creates an empty scheduler on `clock`.
    pub fn new(clock: Clock) -> Self {
        Scheduler {
            inner: Arc::new(SchedInner {
                clock,
                state: Mutex::new(SchedState {
                    seed: 0x5ced_u64,
                    ..SchedState::default()
                }),
            }),
        }
    }

    /// The clock this scheduler fires against.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// Reseeds the jitter source. Affects tasks registered afterwards;
    /// the same seed and registration sequence reproduce the same
    /// schedule exactly.
    pub fn reseed(&self, seed: u64) {
        self.inner.state.lock().seed = seed;
    }

    /// Creates and (unless dormant) schedules a task, all under one
    /// critical section so a concurrent pump can never observe a
    /// half-registered entry. The first periodic due time samples the
    /// task's own jitter generator, so schedules replay under the same
    /// seed.
    fn register(&self, name: String, cadence: Cadence, due: Option<u64>, f: TaskFn) -> TaskHandle {
        let mut st = self.inner.state.lock();
        let id = st.next_id;
        st.next_id += 1;
        let rng = StdRng::seed_from_u64(st.seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut task = Task {
            name,
            cadence,
            f,
            rng,
            due_ms: None,
            paused: false,
            paused_remaining: None,
            rearmed: false,
            stats: TaskStats::default(),
            last_error: None,
        };
        let due = match cadence {
            Cadence::Periodic { interval_ms, .. } => {
                Some(self.inner.clock.now_ms() + interval_ms + task.jitter())
            }
            Cadence::Once => due,
        };
        st.tasks.insert(id, task);
        if let Some(due) = due {
            st.enqueue(id, due);
        }
        TaskHandle {
            id,
            inner: self.inner.clone(),
        }
    }

    /// Registers a periodic task firing every `interval` (plus a
    /// uniformly sampled `0..=jitter` per firing). The first firing is
    /// one interval (plus jitter) from now.
    pub fn every(
        &self,
        interval: Duration,
        jitter: Duration,
        name: impl Into<String>,
        f: impl Fn() -> TaskResult + Send + Sync + 'static,
    ) -> TaskHandle {
        self.register(
            name.into(),
            Cadence::Periodic {
                interval_ms: ms(interval).max(1),
                jitter_ms: ms(jitter),
            },
            None,
            Arc::new(f),
        )
    }

    /// Registers a one-shot task firing `delay` from now. After firing
    /// it goes dormant and can be re-armed with
    /// [`TaskHandle::reschedule_at`].
    pub fn once(
        &self,
        delay: Duration,
        name: impl Into<String>,
        f: impl Fn() -> TaskResult + Send + Sync + 'static,
    ) -> TaskHandle {
        self.once_at(self.inner.clock.now_ms() + ms(delay), name, f)
    }

    /// Registers a one-shot task firing at absolute virtual time
    /// `due_ms` (clamped to now if already past).
    pub fn once_at(
        &self,
        due_ms: u64,
        name: impl Into<String>,
        f: impl Fn() -> TaskResult + Send + Sync + 'static,
    ) -> TaskHandle {
        let due = due_ms.max(self.inner.clock.now_ms());
        self.register(name.into(), Cadence::Once, Some(due), Arc::new(f))
    }

    /// Registers a dormant one-shot task that never fires until armed
    /// with [`TaskHandle::reschedule_at`] — the shape of a lease
    /// auto-renewal timer that tracks a moving expiry.
    pub fn dormant(
        &self,
        name: impl Into<String>,
        f: impl Fn() -> TaskResult + Send + Sync + 'static,
    ) -> TaskHandle {
        self.register(name.into(), Cadence::Once, None, Arc::new(f))
    }

    /// Virtual time of the next scheduled firing, if any task is armed.
    pub fn next_due_ms(&self) -> Option<u64> {
        self.inner
            .state
            .lock()
            .queue
            .iter()
            .next()
            .map(|&(due, _)| due)
    }

    /// Number of live tasks (scheduled, dormant, or paused). Cancelled
    /// and retired tasks are removed from the table; their handles then
    /// read default stats.
    pub fn task_count(&self) -> usize {
        self.inner.state.lock().tasks.len()
    }

    /// Names of the live tasks in registration order. Each task's jitter
    /// generator is seeded from its position in this order, so the list
    /// is part of the replay contract: a refactor that registers one
    /// task more, fewer, or earlier moves every later task's schedule.
    pub fn task_names(&self) -> Vec<String> {
        let st = self.inner.state.lock();
        // drvlint: allow(map-iter) — sorted by task id on the next line.
        let mut by_id: Vec<(&u64, &Task)> = st.tasks.iter().collect();
        by_id.sort_unstable_by_key(|(id, _)| **id);
        by_id.into_iter().map(|(_, t)| t.name.clone()).collect()
    }

    /// Fires every task due at or before the current clock (catching up
    /// tasks whose due time was jumped over by a manual
    /// [`Clock::advance_ms`]). Returns the number of executions.
    pub fn run_due(&self) -> u64 {
        self.run_until(self.inner.clock.now_ms())
    }

    /// The pump: advances the clock from firing to firing, running every
    /// task due at or before `target_ms`, then leaves the clock at
    /// `target_ms` (or later, when a task's own message exchanges
    /// charged latency past it). Tasks fire in `(due, registration)`
    /// order; work a task triggers (for example a renewal that charges
    /// link latency to the clock) is observed before the next firing is
    /// chosen, so timers and messages interleave deterministically.
    /// Returns the number of task executions.
    pub fn run_until(&self, target_ms: u64) -> u64 {
        let mut fired = 0u64;
        loop {
            let next = {
                let mut st = self.inner.state.lock();
                match st.queue.iter().next().copied() {
                    Some((due, id)) if due <= target_ms => {
                        st.queue.remove(&(due, id));
                        // Cancelling removes a task's queue entry with it,
                        // so an orphaned entry has nothing to run.
                        let Some(task) = st.tasks.get_mut(&id) else {
                            continue;
                        };
                        task.due_ms = None;
                        task.rearmed = false;
                        Some((due, id, task.f.clone()))
                    }
                    _ => None,
                }
            };
            let Some((due, id, f)) = next else { break };
            let now = self.inner.clock.now_ms();
            if due > now {
                self.inner.clock.advance_ms(due - now);
            }
            let result = f();
            fired += 1;
            self.finish_run(id, due, result);
        }
        let now = self.inner.clock.now_ms();
        if now < target_ms {
            self.inner.clock.advance_ms(target_ms - now);
        }
        fired
    }

    /// Post-run bookkeeping: counters, then re-arming per cadence unless
    /// the task retired itself, was cancelled mid-run, or explicitly
    /// rescheduled itself.
    fn finish_run(&self, id: u64, fire_ms: u64, result: TaskResult) {
        let now = self.inner.clock.now_ms();
        let mut st = self.inner.state.lock();
        let Some(task) = st.tasks.get_mut(&id) else {
            return;
        };
        task.stats.runs += 1;
        let retire = match result {
            Ok(TaskControl::Continue) => {
                task.stats.consecutive_errors = 0;
                false
            }
            Ok(TaskControl::Done) => true,
            Err(e) => {
                task.stats.errors += 1;
                task.stats.consecutive_errors += 1;
                task.last_error = Some(e);
                false
            }
        };
        if retire {
            // Retired tasks leave the table entirely (handles read
            // default stats afterwards); keeping them would grow the
            // task map for the scheduler's whole lifetime.
            st.dequeue(id);
            st.tasks.remove(&id);
            return;
        }
        if task.rearmed || task.paused {
            return;
        }
        if let Cadence::Periodic { interval_ms, .. } = task.cadence {
            // Fixed-rate from the scheduled firing time, so beats land on
            // exact interval multiples even when the run itself charged
            // message latency to the clock. Beats jumped over by a manual
            // clock advance are skipped, not replayed.
            let mut next = fire_ms + interval_ms + task.jitter();
            if next <= now {
                let behind = now - fire_ms;
                next = fire_ms + (behind / interval_ms + 1) * interval_ms;
            }
            st.enqueue(id, next);
        }
        // One-shot tasks stay dormant until rescheduled.
    }
}

/// Handle to a registered task: pause/resume, cancel, reschedule, and
/// counters. Cloning shares the underlying task.
#[derive(Clone)]
pub struct TaskHandle {
    id: u64,
    inner: Arc<SchedInner>,
}

impl fmt::Debug for TaskHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskHandle")
            .field("id", &self.id)
            .field("name", &self.name())
            .field("next_due_ms", &self.next_due_ms())
            .finish()
    }
}

impl TaskHandle {
    /// The task's registered name (empty if the task was dropped).
    pub fn name(&self) -> String {
        self.inner
            .state
            .lock()
            .tasks
            .get(&self.id)
            .map(|t| t.name.clone())
            .unwrap_or_default()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TaskStats {
        self.inner
            .state
            .lock()
            .tasks
            .get(&self.id)
            .map(|t| t.stats)
            .unwrap_or_default()
    }

    /// Message of the most recent failed run.
    pub fn last_error(&self) -> Option<String> {
        self.inner
            .state
            .lock()
            .tasks
            .get(&self.id)
            .and_then(|t| t.last_error.clone())
    }

    /// Virtual time of the next firing (`None` while dormant, paused, or
    /// cancelled).
    pub fn next_due_ms(&self) -> Option<u64> {
        self.inner
            .state
            .lock()
            .tasks
            .get(&self.id)
            .and_then(|t| t.due_ms)
    }

    /// Whether the task will fire again without intervention.
    pub fn is_scheduled(&self) -> bool {
        self.next_due_ms().is_some()
    }

    /// Whether the task was cancelled or retired itself (its entry is
    /// removed from the task table).
    pub fn is_cancelled(&self) -> bool {
        !self.inner.state.lock().tasks.contains_key(&self.id)
    }

    /// Takes the task off the schedule. A paused armed one-shot
    /// remembers its remaining delay (a dormant one stays dormant); a
    /// paused periodic task resumes a full interval after
    /// [`resume`](Self::resume).
    pub fn pause(&self) {
        let now = self.inner.clock.now_ms();
        let mut st = self.inner.state.lock();
        match st.tasks.get_mut(&self.id) {
            Some(t) if !t.paused => {
                t.paused = true;
                t.paused_remaining = t.due_ms.map(|d| d.saturating_sub(now));
            }
            _ => return,
        }
        st.dequeue(self.id);
    }

    /// Puts a paused task back on the schedule. A one-shot that was
    /// dormant when paused stays dormant: resuming must not invent a
    /// firing that was never armed.
    pub fn resume(&self) {
        let now = self.inner.clock.now_ms();
        let mut st = self.inner.state.lock();
        let Some(t) = st.tasks.get_mut(&self.id) else {
            return;
        };
        if !t.paused {
            return;
        }
        t.paused = false;
        let due = match t.cadence {
            Cadence::Periodic { interval_ms, .. } => {
                let j = t.jitter();
                Some(now + interval_ms + j)
            }
            Cadence::Once => t.paused_remaining.take().map(|r| now + r),
        };
        if let Some(due) = due {
            st.enqueue(self.id, due);
        }
    }

    /// Permanently removes the task from schedule and table; the handle
    /// reads default stats afterwards.
    pub fn cancel(&self) {
        let mut st = self.inner.state.lock();
        st.dequeue(self.id);
        st.tasks.remove(&self.id);
    }

    /// (Re-)arms the task to fire at absolute virtual time `due_ms`
    /// (clamped to now if already past), clearing a pause. This is how a
    /// lease auto-renewal timer tracks a moving expiry. No-op on
    /// cancelled tasks.
    pub fn reschedule_at(&self, due_ms: u64) {
        let now = self.inner.clock.now_ms();
        let mut st = self.inner.state.lock();
        let Some(t) = st.tasks.get_mut(&self.id) else {
            return;
        };
        t.paused = false;
        t.rearmed = true;
        st.enqueue(self.id, due_ms.max(now));
    }

    /// Like [`reschedule_at`](Self::reschedule_at), but spreads the
    /// firing uniformly inside `[due_ms, due_ms + spread_ms)` using the
    /// task's own seed-reproducible jitter generator — the same source
    /// periodic jitter draws from, so replays under one scheduler seed
    /// reproduce the spread exactly. A fleet of one-shot timers all due
    /// at structurally similar instants (every lease's renew-due point,
    /// say) de-synchronizes into the window instead of stampeding one
    /// tick. `spread_ms == 0` degrades to the exact re-arm.
    pub fn reschedule_at_jittered(&self, due_ms: u64, spread_ms: u64) {
        let now = self.inner.clock.now_ms();
        let mut st = self.inner.state.lock();
        let Some(t) = st.tasks.get_mut(&self.id) else {
            return;
        };
        let jitter = if spread_ms > 0 {
            t.rng.gen_range(0..spread_ms)
        } else {
            0
        };
        t.paused = false;
        t.rearmed = true;
        st.enqueue(self.id, due_ms.saturating_add(jitter).max(now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn rig() -> (Scheduler, Clock) {
        let clock = Clock::simulated();
        (Scheduler::new(clock.clone()), clock)
    }

    fn counter_task(hits: &Arc<AtomicU64>) -> impl Fn() -> TaskResult + Send + Sync {
        let hits = hits.clone();
        move || {
            hits.fetch_add(1, Ordering::SeqCst);
            Ok(TaskControl::Continue)
        }
    }

    #[test]
    fn periodic_task_fires_on_exact_ticks() {
        let (sched, clock) = rig();
        let times: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let t = times.clone();
        let c = clock.clone();
        sched.every(
            Duration::from_millis(100),
            Duration::ZERO,
            "tick",
            move || {
                t.lock().push(c.now_ms());
                Ok(TaskControl::Continue)
            },
        );
        sched.run_until(350);
        assert_eq!(*times.lock(), vec![100, 200, 300]);
        assert_eq!(clock.now_ms(), 350);
    }

    #[test]
    fn once_fires_once_and_goes_dormant() {
        let (sched, clock) = rig();
        let hits = Arc::new(AtomicU64::new(0));
        let h = sched.once(Duration::from_millis(50), "boom", counter_task(&hits));
        sched.run_until(1_000);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert!(!h.is_scheduled());
        assert!(!h.is_cancelled());
        // Re-arming fires it again.
        h.reschedule_at(clock.now_ms() + 10);
        sched.run_until(2_000);
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn tasks_interleave_in_due_then_registration_order() {
        let (sched, _clock) = rig();
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let l1 = log.clone();
        sched.every(Duration::from_millis(30), Duration::ZERO, "a", move || {
            l1.lock().push("a");
            Ok(TaskControl::Continue)
        });
        let l2 = log.clone();
        sched.every(Duration::from_millis(20), Duration::ZERO, "b", move || {
            l2.lock().push("b");
            Ok(TaskControl::Continue)
        });
        let l3 = log.clone();
        sched.once(Duration::from_millis(30), "c", move || {
            l3.lock().push("c");
            Ok(TaskControl::Continue)
        });
        sched.run_until(60);
        // 20:b, 30:a (registered before c), 30:c, 40:b, 60:a, 60:b.
        assert_eq!(*log.lock(), vec!["b", "a", "c", "b", "a", "b"]);
    }

    #[test]
    fn error_counters_track_failures_and_reset_on_success() {
        let (sched, _clock) = rig();
        let fail_until = Arc::new(AtomicU64::new(3));
        let f = fail_until.clone();
        let h = sched.every(
            Duration::from_millis(10),
            Duration::ZERO,
            "flaky",
            move || {
                if f.load(Ordering::SeqCst) > 0 {
                    f.fetch_sub(1, Ordering::SeqCst);
                    Err("down".into())
                } else {
                    Ok(TaskControl::Continue)
                }
            },
        );
        sched.run_until(35);
        let st = h.stats();
        assert_eq!(st.runs, 3);
        assert_eq!(st.errors, 3);
        assert_eq!(st.consecutive_errors, 3);
        assert_eq!(h.last_error().as_deref(), Some("down"));
        sched.run_until(45);
        let st = h.stats();
        assert_eq!(st.runs, 4);
        assert_eq!(st.errors, 3);
        assert_eq!(st.consecutive_errors, 0, "success resets the streak");
    }

    #[test]
    fn done_retires_the_task() {
        let (sched, _clock) = rig();
        let hits = Arc::new(AtomicU64::new(0));
        let h = {
            let hits = hits.clone();
            sched.every(
                Duration::from_millis(10),
                Duration::ZERO,
                "retry",
                move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                    if hits.load(Ordering::SeqCst) >= 2 {
                        Ok(TaskControl::Done)
                    } else {
                        Ok(TaskControl::Continue)
                    }
                },
            )
        };
        sched.run_until(1_000);
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        assert!(h.is_cancelled());
        // A retired task cannot be re-armed.
        h.reschedule_at(2_000);
        sched.run_until(3_000);
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn pause_and_resume_control_the_schedule() {
        let (sched, clock) = rig();
        let hits = Arc::new(AtomicU64::new(0));
        let h = sched.every(
            Duration::from_millis(10),
            Duration::ZERO,
            "t",
            counter_task(&hits),
        );
        sched.run_until(30);
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        h.pause();
        assert!(!h.is_scheduled());
        sched.run_until(100);
        assert_eq!(hits.load(Ordering::SeqCst), 3, "paused tasks stay silent");
        h.resume();
        sched.run_until(115);
        assert_eq!(
            hits.load(Ordering::SeqCst),
            4,
            "resumed a full interval later"
        );
        assert_eq!(clock.now_ms(), 115);
    }

    #[test]
    fn cancel_is_permanent() {
        let (sched, _clock) = rig();
        let hits = Arc::new(AtomicU64::new(0));
        let h = sched.every(
            Duration::from_millis(10),
            Duration::ZERO,
            "t",
            counter_task(&hits),
        );
        h.cancel();
        sched.run_until(100);
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        assert!(h.is_cancelled());
        h.resume();
        h.reschedule_at(200);
        sched.run_until(300);
        assert_eq!(hits.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn cancelled_and_retired_tasks_leave_the_table() {
        let (sched, _clock) = rig();
        let hits = Arc::new(AtomicU64::new(0));
        let a = sched.every(
            Duration::from_millis(10),
            Duration::ZERO,
            "a",
            counter_task(&hits),
        );
        let b = sched.every(Duration::from_millis(10), Duration::ZERO, "b", || {
            Ok(TaskControl::Done)
        });
        let c = sched.dormant("c", counter_task(&hits));
        assert_eq!(sched.task_count(), 3);
        sched.run_until(15); // b retires itself on its first firing
        assert_eq!(sched.task_count(), 2);
        assert!(b.is_cancelled());
        a.cancel();
        c.cancel();
        assert_eq!(sched.task_count(), 0, "no dead entries accumulate");
    }

    #[test]
    fn resuming_a_paused_dormant_task_keeps_it_dormant() {
        let (sched, _clock) = rig();
        let hits = Arc::new(AtomicU64::new(0));
        let h = sched.dormant("lease", counter_task(&hits));
        // Pause while dormant (a lifecycle pause with no lease active),
        // then resume: nothing may fire until reschedule_at arms it.
        h.pause();
        h.resume();
        assert!(!h.is_scheduled());
        sched.run_until(10_000);
        assert_eq!(hits.load(Ordering::SeqCst), 0, "resume invented a firing");
        h.reschedule_at(11_000);
        sched.run_until(12_000);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn manual_clock_jumps_skip_missed_beats_not_replay_them() {
        let (sched, clock) = rig();
        let hits = Arc::new(AtomicU64::new(0));
        sched.every(
            Duration::from_millis(10),
            Duration::ZERO,
            "t",
            counter_task(&hits),
        );
        // Jump far past many due times without pumping.
        clock.advance_ms(1_000);
        sched.run_due();
        assert_eq!(
            hits.load(Ordering::SeqCst),
            1,
            "one catch-up beat, not a hundred replays"
        );
        sched.run_until(clock.now_ms() + 20);
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn jittered_schedule_is_deterministic_under_a_seed() {
        let record = |seed: u64| -> Vec<u64> {
            let clock = Clock::simulated();
            let sched = Scheduler::new(clock.clone());
            sched.reseed(seed);
            let times: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
            for i in 0..3 {
                let t = times.clone();
                let c = clock.clone();
                sched.every(
                    Duration::from_millis(50),
                    Duration::from_millis(20),
                    format!("t{i}"),
                    move || {
                        t.lock().push(c.now_ms());
                        Ok(TaskControl::Continue)
                    },
                );
            }
            sched.run_until(1_000);
            let v = times.lock().clone();
            v
        };
        let a = record(42);
        let b = record(42);
        assert_eq!(a, b, "same seed must reproduce the schedule");
        let c = record(43);
        assert_ne!(a, c, "different seeds must actually jitter differently");
        // Jitter stays within bounds: consecutive firings of one task
        // are 50..=90ms apart (interval..interval+2*jitter given the
        // fixed-rate re-arm).
        assert!(a.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn jittered_one_shot_rearm_spreads_inside_the_window_reproducibly() {
        let armed = |seed: u64| -> Vec<u64> {
            let clock = Clock::simulated();
            let sched = Scheduler::new(clock.clone());
            sched.reseed(seed);
            let mut dues = Vec::new();
            for i in 0..8 {
                let h = sched.dormant(format!("lease{i}"), || Ok(TaskControl::Continue));
                h.reschedule_at_jittered(1_000, 500);
                dues.push(h.next_due_ms().unwrap());
            }
            dues
        };
        let a = armed(7);
        assert_eq!(a, armed(7), "same seed must reproduce the spread");
        assert_ne!(a, armed(8), "different seeds must spread differently");
        assert!(a.iter().all(|&d| (1_000..1_500).contains(&d)));
        assert!(
            a.windows(2).any(|w| w[0] != w[1]),
            "spread collapsed to one tick: {a:?}"
        );
        // Zero spread is the exact re-arm.
        let clock = Clock::simulated();
        let sched = Scheduler::new(clock);
        let h = sched.dormant("exact", || Ok(TaskControl::Continue));
        h.reschedule_at_jittered(2_000, 0);
        assert_eq!(h.next_due_ms(), Some(2_000));
    }

    #[test]
    fn task_may_reschedule_itself_mid_run() {
        // A one-shot lease timer that re-arms itself at the next expiry.
        let clock = Clock::simulated();
        let sched = Scheduler::new(clock.clone());
        let times: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let handle: Arc<Mutex<Option<TaskHandle>>> = Arc::new(Mutex::new(None));
        let t = times.clone();
        let hh = handle.clone();
        let c = clock.clone();
        let h = sched.once(Duration::from_millis(100), "lease", move || {
            let now = c.now_ms();
            t.lock().push(now);
            if now < 300 {
                if let Some(h) = hh.lock().as_ref() {
                    h.reschedule_at(now + 100);
                }
            }
            Ok(TaskControl::Continue)
        });
        *handle.lock() = Some(h);
        sched.run_until(1_000);
        assert_eq!(*times.lock(), vec![100, 200, 300]);
    }

    #[test]
    fn run_until_interleaves_clock_charges_from_tasks() {
        // A task that itself advances the clock (as a network exchange
        // charging link latency would); later firings shift accordingly
        // but stay on the fixed-rate grid.
        let (sched, clock) = rig();
        let times: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let t = times.clone();
        let c = clock.clone();
        sched.every(
            Duration::from_millis(100),
            Duration::ZERO,
            "slow",
            move || {
                t.lock().push(c.now_ms());
                c.advance_ms(30); // simulated request latency
                Ok(TaskControl::Continue)
            },
        );
        sched.run_until(400);
        assert_eq!(*times.lock(), vec![100, 200, 300, 400]);
        assert_eq!(clock.now_ms(), 430, "final run overshot the target");
    }

    #[test]
    fn ten_thousand_tasks_pump_in_subquadratic_time() {
        // The due-queue is a BTreeSet keyed by (due_ms, task_id): every
        // pop and re-arm is O(log n). Pin that with a 10k-task fleet —
        // a control plane running one lifecycle task per client at
        // rollout scale. Each task fires on its own period so the queue
        // stays fully populated and due times interleave rather than
        // batching into one tick.
        const TASKS: u64 = 10_000;
        const HORIZON_MS: u64 = 10_000;
        let (sched, clock) = rig();
        let fired = Arc::new(AtomicU64::new(0));
        let mut expected = 0u64;
        for i in 0..TASKS {
            // Periods 1000..=1999 ms: ~10k distinct due times per
            // second of virtual time, 5-10 firings per task.
            let period = 1_000 + (i % 1_000);
            expected += HORIZON_MS / period;
            sched.every(
                Duration::from_millis(period),
                Duration::ZERO,
                format!("client-{i}"),
                counter_task(&fired),
            );
        }
        assert_eq!(sched.task_count(), TASKS as usize);

        let started = std::time::Instant::now();
        sched.run_until(HORIZON_MS);
        let elapsed = started.elapsed();

        assert_eq!(
            fired.load(Ordering::SeqCst),
            expected,
            "every periodic task fires exactly floor(horizon/period) times"
        );
        assert_eq!(clock.now_ms(), HORIZON_MS);
        assert_eq!(
            sched.task_count(),
            TASKS as usize,
            "periodic tasks stay registered after the pump"
        );
        // ~70k firings over a 10k-deep queue finish comfortably within
        // seconds when pops are O(log n); a linear-scan queue would do
        // ~7e8 comparisons and blow far past this generous bound even
        // on slow CI hardware.
        assert!(
            elapsed < Duration::from_secs(20),
            "10k-task pump took {elapsed:?}; scheduler has regressed toward quadratic behavior"
        );
    }
}
