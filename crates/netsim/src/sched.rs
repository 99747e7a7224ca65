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
//! registration sequence produce the same schedule, tick for tick. A
//! task that [sleeps](TaskHandle::sleep_until) costs the pump nothing.
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
    /// Completed executions (successful or not; slept ticks are none).
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

/// "No such time": a sleep only [`TaskHandle::wake`] ends, or a paused
/// one-shot that was dormant.
const NEVER: u64 = u64::MAX;

// The table holds each task boxed: a hash table keeps up to half its
// buckets empty, and an empty bucket then costs a key and a pointer, not
// a whole `Task`. Each live task still pays for every byte of its own:
// times are `u64` sentinels, not `Option`s.
struct Task {
    name: String,
    cadence: Cadence,
    f: TaskFn,
    rng: StdRng,
    /// Its next turn (mid-run, the tick being run); parked, the next turn
    /// it parked with, its later turns following on its grid.
    due_ms: u64,
    /// Sleep threshold ([`TaskHandle::sleep_until`]); 0 while awake.
    sleep_ms: u64,
    /// Delay left on a paused one-shot, restored on resume; [`NEVER`]
    /// when the one-shot was dormant at pause time (it stays dormant).
    paused_remaining: u64,
    /// In the firing queue, at [`Task::slot`].
    queued: bool,
    /// Asleep off the per-tick path: in `sleepers` and queued only at its
    /// first turn at or past the threshold (neither for [`NEVER`]).
    parked: bool,
    paused: bool,
    /// Set when the task (or anyone else) rescheduled it during its own
    /// run; the pump then leaves the explicit schedule alone.
    rearmed: bool,
    stats: TaskStats,
    last_error: Option<String>,
}

impl Task {
    fn jitter(&mut self) -> u64 {
        match self.jitter_ms() {
            0 => 0,
            j => self.rng.gen_range(0..j + 1),
        }
    }

    /// The interval of a task that may sleep: a jittered one never does,
    /// each jitter draw being part of the replay contract.
    fn sleep_grid(&self) -> Option<u64> {
        match self.cadence {
            Cadence::Periodic { interval_ms: i, .. } if self.jitter_ms() == 0 => Some(i),
            _ => None,
        }
    }

    fn jitter_ms(&self) -> u64 {
        match self.cadence {
            Cadence::Periodic { jitter_ms, .. } => jitter_ms,
            Cadence::Once => 0,
        }
    }

    /// Its key in the firing queue while `queued`.
    fn slot(&self) -> u64 {
        match self.sleep_grid() {
            Some(i) if self.parked => {
                let ticks = (self.sleep_ms - self.due_ms).div_ceil(i);
                self.due_ms.saturating_add(ticks.saturating_mul(i))
            }
            _ => self.due_ms,
        }
    }

    /// Fixed-rate re-arm after the beat at `fire_ms` left the clock at
    /// `now`: beats the clock already passed are skipped, not replayed.
    fn next_beat(&mut self, fire_ms: u64, interval_ms: u64, now: u64) -> u64 {
        let next = fire_ms + interval_ms + self.jitter();
        if next > now {
            return next;
        }
        fire_ms + ((now - fire_ms) / interval_ms + 1) * interval_ms
    }
}

#[derive(Default)]
struct SchedState {
    tasks: HashMap<u64, Box<Task>>,
    timeline: Timeline,
    next_id: u64,
    seed: u64,
}

impl SchedState {
    fn task(&mut self, id: u64) -> Option<(&mut Timeline, &mut Task)> {
        Some((&mut self.timeline, self.tasks.get_mut(&id)?))
    }

    /// Pops the next turn due by `target_ms` whose task has work to do,
    /// with the clock advanced to it. A sleeper's turn short of its
    /// threshold is a slept tick: re-armed as a run would, not run.
    fn next_turn(&mut self, clock: &Clock, target_ms: u64) -> Option<(u64, u64, TaskFn)> {
        loop {
            let now = clock.now_ms();
            let tl = &mut self.timeline;
            tl.wake_sleepers(&mut self.tasks, now);
            let &(due, id) = tl.queue.first().filter(|&&(d, _)| d <= target_ms)?;
            tl.queue.pop_first();
            tl.cursor = tl.cursor.max((due, id));
            // Cancelling removes a task's queue entry with it, so an
            // orphaned entry has nothing to run.
            let Some((tl, task)) = self.task(id) else {
                continue;
            };
            if task.parked {
                tl.sleepers.remove(&(task.sleep_ms, id));
            }
            (task.due_ms, task.queued, task.parked, task.rearmed) = (due, false, false, false);
            clock.advance_ms(due.saturating_sub(now));
            let now = now.max(due);
            if let Some(i) = task.sleep_grid().filter(|_| task.sleep_ms > now) {
                let next = task.next_beat(due, i, now);
                tl.arm(id, task, next, now);
                continue;
            }
            task.sleep_ms = 0;
            return Some((due, id, task.f.clone()));
        }
    }
}

/// The firing queue, the parked sleepers, and how far the pump has got.
#[derive(Default)]
struct Timeline {
    /// Firing queue ordered by `(due_ms, task id)`: time first, then
    /// registration order as the deterministic tiebreak.
    queue: BTreeSet<(u64, u64)>,
    /// Parked sleepers by `(sleep_ms, task id)`, except those asleep until
    /// woken: the task table finds them the rare times the clock is late.
    sleepers: BTreeSet<(u64, u64)>,
    /// The furthest `(due, id)` turn taken; `(target, MAX)` after a pump.
    cursor: (u64, u64),
    /// Smallest interval of any task that ever parked.
    min_park_ms: Option<u64>,
    /// The clock is `min_park_ms` behind the cursor, so beats may skip
    /// ticks: sleepers walk their ticks, one pop each, instead of parking.
    late: bool,
}

impl Timeline {
    /// Takes task `id` off the schedule; a parked sleeper's `due_ms` catches
    /// up to its next turn after the cursor (its skipped turns were on time).
    fn unqueue(&mut self, id: u64, t: &mut Task) {
        if t.queued {
            self.queue.remove(&(t.slot(), id));
        }
        if t.parked {
            self.sleepers.remove(&(t.sleep_ms, id));
            if let Some(i) = t.sleep_grid().filter(|_| (t.due_ms, id) <= self.cursor) {
                t.due_ms += (self.cursor.0 - t.due_ms) / i * i;
                t.due_ms += if (t.due_ms, id) <= self.cursor { i } else { 0 };
            }
        }
        (t.queued, t.parked) = (false, false);
    }

    /// Puts task `id` on the schedule with `due` as its next turn; a
    /// sleeper short of its threshold by then parks, unless the clock is
    /// late. A threshold reached by `due` still stands until the task
    /// runs: a reschedule may yet move the turn before it.
    fn arm(&mut self, id: u64, t: &mut Task, due: u64, now: u64) {
        self.unqueue(id, t);
        t.due_ms = due;
        let asleep = t.sleep_ms > due.max(now);
        if let Some(i) = t.sleep_grid().filter(|_| asleep && !self.late) {
            t.parked = true;
            self.min_park_ms = Some(self.min_park_ms.map_or(i, |m| m.min(i)));
            if t.sleep_ms == NEVER {
                return;
            }
            self.sleepers.insert((t.sleep_ms, id));
        }
        t.queued = true;
        self.queue.insert((t.slot(), id));
    }

    /// Queues a parked sleeper at its next turn.
    fn unpark(&mut self, id: u64, t: &mut Task) {
        self.unqueue(id, t);
        t.queued = true;
        self.queue.insert((t.due_ms, id));
    }

    /// Before the pump's next turn, with the clock at `now`, unparks the
    /// sleepers whose threshold the clock has passed — all of them once
    /// the clock falls late.
    fn wake_sleepers(&mut self, tasks: &mut HashMap<u64, Box<Task>>, now: u64) {
        let grace = self.min_park_ms.unwrap_or(NEVER);
        let late = now >= self.cursor.0.saturating_add(grace);
        if late && !self.late {
            // drvlint: allow(map-iter) — each unpark moves only its own
            // task to its own `(turn, id)` key, so the order is immaterial.
            for (&id, t) in tasks.iter_mut().filter(|(_, t)| t.parked) {
                self.unpark(id, t);
            }
        }
        self.late = late;
        while let Some(&(_, id)) = self.sleepers.first().filter(|s| s.0 <= now) {
            let Some(t) = tasks.get_mut(&id) else { break };
            self.unpark(id, t);
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
            .field("scheduled", &st.timeline.queue.len())
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
        let mut task = Box::new(Task {
            name,
            cadence,
            f,
            rng,
            due_ms: 0,
            sleep_ms: 0,
            paused_remaining: NEVER,
            queued: false,
            parked: false,
            paused: false,
            rearmed: false,
            stats: TaskStats::default(),
            last_error: None,
        });
        let now = self.inner.clock.now_ms();
        let due = match cadence {
            Cadence::Periodic { interval_ms, .. } => Some(now + interval_ms + task.jitter()),
            Cadence::Once => due,
        };
        if let Some(due) = due {
            st.timeline.arm(id, &mut task, due, now);
        }
        st.tasks.insert(id, task);
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
        let mut by_id: Vec<_> = st.tasks.iter().collect();
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
    /// Returns the number of task executions (slept ticks excluded).
    pub fn run_until(&self, target_ms: u64) -> u64 {
        let clock = &self.inner.clock;
        let mut fired = 0u64;
        loop {
            let next = self.inner.state.lock().next_turn(clock, target_ms);
            let Some((due, id, f)) = next else { break };
            let result = f();
            fired += 1;
            self.finish_run(id, due, result);
        }
        let now = clock.now_ms();
        if now < target_ms {
            clock.advance_ms(target_ms - now);
        }
        let tl = &mut self.inner.state.lock().timeline;
        tl.cursor = tl.cursor.max((target_ms, u64::MAX));
        fired
    }

    /// Post-run bookkeeping: counters, then re-arming per cadence unless
    /// the task retired itself, was cancelled mid-run, or explicitly
    /// rescheduled itself.
    fn finish_run(&self, id: u64, fire_ms: u64, result: TaskResult) {
        let now = self.inner.clock.now_ms();
        let mut st = self.inner.state.lock();
        let Some((timeline, task)) = st.task(id) else {
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
            timeline.unqueue(id, task);
            st.tasks.remove(&id);
            return;
        }
        if task.rearmed || task.paused {
            return;
        }
        if let Cadence::Periodic { interval_ms, .. } = task.cadence {
            // Fixed-rate from the scheduled firing time, so beats land on
            // exact interval multiples even when the run itself charged
            // message latency to the clock.
            let next = task.next_beat(fire_ms, interval_ms, now);
            timeline.arm(id, task, next, now);
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
    /// Reads the task, unless it was cancelled or retired.
    fn read<R>(&self, f: impl FnOnce(&Task) -> R) -> Option<R> {
        self.inner.state.lock().tasks.get(&self.id).map(|t| f(t))
    }

    /// The task's registered name (empty if the task was dropped).
    pub fn name(&self) -> String {
        self.read(|t| t.name.clone()).unwrap_or_default()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TaskStats {
        self.read(|t| t.stats).unwrap_or_default()
    }

    /// Message of the most recent failed run.
    pub fn last_error(&self) -> Option<String> {
        self.read(|t| t.last_error.clone()).flatten()
    }

    /// Virtual time of the next firing, a sleeper's first tick at its
    /// threshold (`None` while dormant, paused, cancelled or unwoken).
    pub fn next_due_ms(&self) -> Option<u64> {
        self.read(|t| t.queued.then(|| t.slot())).flatten()
    }

    /// Whether the task is on the schedule: armed, or asleep on its grid.
    pub fn is_scheduled(&self) -> bool {
        self.read(|t| t.queued || t.parked).unwrap_or(false)
    }

    /// Whether the task was cancelled or retired itself (left the table).
    pub fn is_cancelled(&self) -> bool {
        self.read(|_| ()).is_none()
    }

    /// Takes the task off the schedule. A paused armed one-shot
    /// remembers its remaining delay (a dormant one stays dormant); a
    /// paused periodic task resumes a full interval after
    /// [`resume`](Self::resume), still asleep if it was.
    pub fn pause(&self) {
        self.with_task(|tl, t, now| {
            if !t.paused {
                let left = t.queued.then(|| t.slot().saturating_sub(now));
                (t.paused, t.paused_remaining) = (true, left.unwrap_or(NEVER));
                tl.unqueue(self.id, t);
            }
        });
    }

    /// Puts a paused task back on the schedule. A one-shot that was
    /// dormant when paused stays dormant: resuming must not invent a
    /// firing that was never armed.
    pub fn resume(&self) {
        self.with_task(|tl, t, now| {
            if !std::mem::replace(&mut t.paused, false) {
                return;
            }
            let remaining = std::mem::replace(&mut t.paused_remaining, NEVER);
            let due = match t.cadence {
                Cadence::Periodic { interval_ms, .. } => Some(now + interval_ms + t.jitter()),
                Cadence::Once => (remaining != NEVER).then(|| now + remaining),
            };
            if let Some(due) = due {
                tl.arm(self.id, t, due, now);
            }
        });
    }

    /// Permanently removes the task from schedule and table (a sleep
    /// with it); the handle reads default stats afterwards.
    pub fn cancel(&self) {
        let mut st = self.inner.state.lock();
        if let Some(mut t) = st.tasks.remove(&self.id) {
            st.timeline.unqueue(self.id, &mut t);
        }
    }

    /// (Re-)arms the task to fire at absolute virtual time `due_ms`
    /// (clamped to now if already past), clearing a pause. This is how a
    /// lease auto-renewal timer tracks a moving expiry. A periodic task's
    /// grid moves to `due_ms`. No-op on cancelled tasks.
    pub fn reschedule_at(&self, due_ms: u64) {
        self.rearm(|_| due_ms);
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
        self.rearm(|t| {
            let jitter = (spread_ms > 0).then(|| t.rng.gen_range(0..spread_ms));
            due_ms.saturating_add(jitter.unwrap_or(0))
        });
    }

    fn rearm(&self, due_ms: impl FnOnce(&mut Task) -> u64) {
        self.with_task(|tl, t, now| {
            let due = due_ms(t).max(now);
            t.paused = false;
            t.rearmed = true;
            tl.arm(self.id, t, due, now);
        });
    }

    /// Runs `op` on the timeline, the task (if alive) and the clock.
    fn with_task(&self, op: impl FnOnce(&mut Timeline, &mut Task, u64)) {
        let now = self.inner.clock.now_ms();
        if let Some((tl, t)) = self.inner.state.lock().task(self.id) {
            op(tl, t, now);
        }
    }

    /// Declares the task idle until virtual time `wake_ms` ([`u64::MAX`]:
    /// until [`wake`](Self::wake)). It runs on exactly the ticks where a
    /// body returning early while the clock is short of `wake_ms` would
    /// have worked: the first tick of its grid (last scheduled tick plus
    /// whole intervals) whose turn comes with the clock at `wake_ms`, late
    /// turns included. Skipped ticks are not runs; running ends the sleep.
    /// No-op for a jittered or one-shot task.
    pub fn sleep_until(&self, wake_ms: u64) {
        self.with_task(|tl, t, now| {
            if t.sleep_grid().is_none() || t.sleep_ms == wake_ms {
                return;
            }
            // Mid-run or paused, the re-arm after the run or the resume
            // applies the new threshold.
            let on_schedule = t.queued || t.parked;
            tl.unqueue(self.id, t);
            t.sleep_ms = wake_ms;
            if on_schedule {
                tl.arm(self.id, t, t.due_ms, now);
            }
        });
    }

    /// Ends a sleep: the task runs at its next tick.
    pub fn wake(&self) {
        self.sleep_until(0);
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

    /// A task every 100 ms that logs the clock of each run.
    fn logged_task(
        sched: &Scheduler,
        clock: &Clock,
        name: &str,
    ) -> (TaskHandle, Arc<Mutex<Vec<u64>>>) {
        let times: Arc<Mutex<Vec<u64>>> = Arc::default();
        let (t, c) = (times.clone(), clock.clone());
        let h = sched.every(
            Duration::from_millis(100),
            Duration::ZERO,
            name,
            move || {
                t.lock().push(c.now_ms());
                Ok(TaskControl::Continue)
            },
        );
        (h, times)
    }

    #[test]
    fn a_beat_one_tick_short_of_its_threshold_fires_when_its_turn_comes_late() {
        let (sched, clock) = rig();
        // Registered first, so it takes tick 200 first and charges 50 ms.
        let c = clock.clone();
        sched.every(
            Duration::from_millis(100),
            Duration::ZERO,
            "slow",
            move || {
                c.advance_ms(50);
                Ok(TaskControl::Continue)
            },
        );
        let (h, times) = logged_task(&sched, &clock, "sleeper");
        h.sleep_until(220);
        assert_eq!(h.next_due_ms(), Some(300), "the first tick past 220");
        sched.run_until(450);
        // Tick 200 was scheduled before 220, but its turn came at 250.
        assert_eq!(*times.lock(), vec![250, 350, 450]);
        assert_eq!(h.stats().runs, 3, "the slept tick at 100 is not a run");
    }

    #[test]
    fn a_sleeper_wakes_on_time_and_runs_are_the_ticks_that_ran() {
        let (sched, clock) = rig();
        let (h, times) = logged_task(&sched, &clock, "t");
        h.sleep_until(u64::MAX);
        assert_eq!(sched.run_until(1_000), 0);
        assert!(h.is_scheduled() && h.next_due_ms().is_none());
        h.wake();
        assert_eq!(sched.run_until(1_250), 2);
        assert_eq!(*times.lock(), vec![1_100, 1_200]);
        h.sleep_until(1_450);
        assert_eq!(h.next_due_ms(), Some(1_500));
        assert_eq!(sched.run_until(1_600), 2);
        assert_eq!(*times.lock(), vec![1_100, 1_200, 1_500, 1_600]);
        assert_eq!(h.stats().runs, 4);
        // A threshold the clock already passed is no sleep at all.
        h.sleep_until(1_600);
        assert_eq!(h.next_due_ms(), Some(1_700));
        h.cancel();
        assert!(!h.is_scheduled());
        assert_eq!(sched.run_until(3_000), 0);
    }

    #[test]
    fn after_pause_and_resume_a_beat_sleeps_on_its_new_grid() {
        let (sched, clock) = rig();
        let (h, times) = logged_task(&sched, &clock, "t");
        h.sleep_until(1_000);
        sched.run_until(250);
        h.pause();
        clock.advance_ms(80);
        h.resume(); // the grid is now 430, 530, …
        sched.run_until(1_100);
        assert_eq!(
            *times.lock(),
            vec![1_030],
            "not 1 000: that tick left with the old grid"
        );
        h.sleep_until(1_250);
        h.reschedule_at(1_160); // …and now 1 160, 1 260, …
        sched.run_until(1_300);
        assert_eq!(*times.lock(), vec![1_030, 1_260]);
    }

    #[test]
    fn jittered_and_one_shot_tasks_never_sleep() {
        let (sched, clock) = rig();
        let hits = Arc::new(AtomicU64::new(0));
        let jittered = sched.every(
            Duration::from_millis(100),
            Duration::from_millis(10),
            "j",
            counter_task(&hits),
        );
        let once = sched.once(Duration::from_millis(50), "o", counter_task(&hits));
        jittered.sleep_until(u64::MAX);
        once.sleep_until(u64::MAX);
        sched.run_until(1_000);
        assert_eq!(hits.load(Ordering::SeqCst), 1 + jittered.stats().runs);
        assert!(jittered.stats().runs >= 9, "{:?}", jittered.stats());
        assert_eq!(clock.now_ms(), 1_000);
    }

    /// One seeded world of `TASKS` zero-jitter periodic tasks whose
    /// working runs charge latency (sometimes more than an interval, so
    /// fixed-rate catch-up skips ticks) and re-aim, pause, resume and
    /// reschedule each other; between uneven pumps the harness jumps the
    /// clock and re-aims. "Aiming" task `j` at `t` means: it has work to
    /// do once the clock reaches `t`. `sleeping`: aims go through
    /// `sleep_until` / `wake` and every run is logged; otherwise every
    /// tick runs the body, which returns early while the clock is short
    /// of its aim, and only the runs that do work are logged.
    fn differential_world(seed: u64, sleeping: bool) -> (Vec<(u64, usize)>, u64) {
        const TASKS: usize = 5;
        let (sched, clock) = rig();
        let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(seed)));
        let aims = Arc::new(Mutex::new(vec![0u64; TASKS]));
        let handles: Arc<Mutex<Vec<TaskHandle>>> = Arc::default();
        let log: Arc<Mutex<Vec<(u64, usize)>>> = Arc::default();
        let aim = {
            let (aims, handles) = (aims.clone(), handles.clone());
            Arc::new(move |j: usize, at: u64| {
                aims.lock()[j] = at;
                if sleeping {
                    handles.lock()[j].sleep_until(at);
                }
            })
        };
        for i in 0..TASKS {
            let interval = rng.lock().gen_range(5..40);
            let (rng, aims, peers) = (rng.clone(), aims.clone(), handles.clone());
            let (log, aim, c) = (log.clone(), aim.clone(), clock.clone());
            let h = sched.every(
                Duration::from_millis(interval),
                Duration::ZERO,
                format!("t{i}"),
                move || {
                    let now = c.now_ms();
                    if now < aims.lock()[i] {
                        assert!(
                            !sleeping,
                            "t{i} ran at {now} asleep until {}",
                            aims.lock()[i]
                        );
                        return Ok(TaskControl::Continue);
                    }
                    log.lock().push((now, i));
                    let mut r = rng.lock();
                    c.advance_ms(r.gen_range(0..60));
                    let j = r.gen_range(0..TASKS as u64) as usize;
                    let h = peers.lock()[j].clone();
                    match r.gen_range(0..10) {
                        0..=3 => aim(j, now + r.gen_range(0..150)),
                        4 => aim(j, u64::MAX),
                        5 => aim(j, 0),
                        6 => h.pause(),
                        7 => h.resume(),
                        8 => h.reschedule_at(now + r.gen_range(0..100)),
                        _ => {}
                    }
                    if r.gen_range(0..10) < 7 {
                        aim(i, now + r.gen_range(0..200));
                    }
                    Ok(TaskControl::Continue)
                },
            );
            handles.lock().push(h);
        }
        let mut outer = StdRng::seed_from_u64(!seed);
        for j in 0..TASKS {
            aim(j, outer.gen_range(0..300));
        }
        let mut fired = 0;
        for _ in 0..60 {
            let target = clock.now_ms() + outer.gen_range(1..120);
            fired += sched.run_until(target);
            let j = outer.gen_range(0..TASKS as u64) as usize;
            match outer.gen_range(0..8) {
                0 => {
                    clock.advance_ms(outer.gen_range(0..200));
                }
                1 => aim(j, clock.now_ms() + outer.gen_range(0..300)),
                2 => aim(j, 0),
                3 => handles.lock()[j].resume(),
                _ => {}
            }
        }
        if sleeping {
            let runs: u64 = handles.lock().iter().map(|h| h.stats().runs).sum();
            assert_eq!(runs, fired, "runs count the beats that ran, and only those");
            assert_eq!(runs as usize, log.lock().len());
        }
        let log = log.lock().clone();
        (log, fired)
    }

    #[test]
    fn sleeping_runs_exactly_the_ticks_that_would_have_done_work() {
        let (mut saved, mut worked) = (0, 0);
        for seed in 0..200 {
            let (every_tick, all) = differential_world(seed, false);
            let (slept, ran) = differential_world(seed, true);
            assert_eq!(
                slept, every_tick,
                "seed {seed}: (clock, task) of the working runs"
            );
            assert!(!slept.is_empty(), "seed {seed}: no task ever worked");
            saved += all - ran;
            worked += ran;
        }
        assert!(
            saved > worked,
            "sleeping skipped {saved} idle ticks of {}",
            saved + worked
        );
    }
}
