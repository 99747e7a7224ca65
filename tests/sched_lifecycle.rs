//! The scheduler-driven lifecycle end to end: mirrors and bootloaders
//! register tasks at construction and everything — heartbeats, health
//! classification, lease renewal, upgrades — happens by pumping
//! `Network::run_until`, at exact virtual-clock ticks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use drivolution::core::pack::pack_driver_padded;
use drivolution::core::{
    ApiName, BinaryFormat, DriverId, DriverImage, DriverRecord, DriverVersion, ExpirationPolicy,
    PermissionRule, RenewPolicy, DRIVOLUTION_PORT,
};
use drivolution::depot::DriverDepot;
use drivolution::fleet::{FleetSim, SimSpec, DEFAULT_POLL_EVERY};
use drivolution::prelude::*;
use drivolution::server::MirrorHealth;

const DRIVER_PADDING: usize = 64 * 1024;

fn padded_record(id: i64, version: DriverVersion) -> DriverRecord {
    let image = DriverImage::new("sched-driver", version, 1);
    let bytes = pack_driver_padded(BinaryFormat::Djar, &image, DRIVER_PADDING);
    DriverRecord::new(DriverId(id), ApiName::rdbc(), BinaryFormat::Djar, bytes)
        .with_version(version)
}

struct Rig {
    net: Network,
    srv: Arc<DrivolutionServer>,
    mirror: Arc<MirrorDepot>,
    url: DbUrl,
}

fn rig() -> Rig {
    let net = Network::new();
    let db = Arc::new(MiniDb::with_clock("orders", net.clock().clone()));
    net.bind_arc(Addr::new("db1", 5432), Arc::new(DbServer::new(db.clone())))
        .unwrap();
    let server_addr = Addr::new("db1", DRIVOLUTION_PORT);
    let srv = attach_in_database(&net, db, server_addr.clone(), ServerConfig::default()).unwrap();
    srv.install_driver(&padded_record(1, DriverVersion::new(1, 0, 0)))
        .unwrap();
    let mirror = MirrorDepot::launch(&net, Addr::new("mirror1", 1071), server_addr).unwrap();
    Rig {
        net,
        srv,
        mirror,
        url: "rdbc:minidb://db1:5432/orders".parse().unwrap(),
    }
}

/// Cancelling a mirror's heartbeat task (its lifecycle driving dies
/// while the replica still serves) must walk the directory entry
/// healthy → overdue → quarantined → evicted at the exact virtual-clock
/// thresholds the directory fixes: overdue after two missed 5s
/// beats, quarantined past 15s of silence, evicted past 120s.
#[test]
fn cancelled_heartbeat_task_walks_the_full_health_lifecycle() {
    let rig = rig();
    let location = rig.mirror.location();
    let entry_health = || {
        rig.srv
            .mirror_directory()
            .entry(&location)
            .map(|e| e.health)
    };

    // Let the scheduler beat a few times, then kill the task at a known
    // beat: the last heartbeat lands at exactly t = 25_000.
    rig.net.run_until(25_000);
    let task = rig.mirror.heartbeat_task().unwrap();
    assert_eq!(task.stats().runs, 5);
    task.cancel();
    assert!(task.is_cancelled());
    let silent_since = 25_000;

    // Healthy through two whole intervals of silence…
    rig.net.run_until(silent_since + 10_000);
    assert_eq!(entry_health(), Some(MirrorHealth::Healthy));
    // …overdue one tick later…
    rig.net.run_until(silent_since + 10_001);
    assert_eq!(entry_health(), Some(MirrorHealth::Overdue));
    // …still overdue at the quarantine threshold…
    rig.net.run_until(silent_since + 15_000);
    assert_eq!(entry_health(), Some(MirrorHealth::Overdue));
    // …quarantined one tick past it…
    rig.net.run_until(silent_since + 15_001);
    assert_eq!(entry_health(), Some(MirrorHealth::Quarantined));
    assert!(rig.srv.mirror_directory().candidates(None, &[]).is_empty());
    // …and evicted entirely one tick past the eviction threshold.
    rig.net.run_until(silent_since + 120_000);
    assert_eq!(entry_health(), Some(MirrorHealth::Quarantined));
    rig.net.run_until(silent_since + 120_001);
    assert_eq!(entry_health(), None);
    assert_eq!(rig.srv.mirror_directory().len(), 0);
}

/// A paused lifecycle (controlled restart) is indistinguishable from a
/// crash to the directory — and resuming re-enters through the normal
/// heartbeat path.
#[test]
fn paused_lifecycle_quarantines_then_resume_recovers() {
    let rig = rig();
    let location = rig.mirror.location();
    rig.net.run_until(10_000);
    rig.mirror.pause_lifecycle();
    rig.net.run_until(40_000);
    assert_eq!(
        rig.srv.mirror_directory().entry(&location).unwrap().health,
        MirrorHealth::Quarantined
    );
    rig.mirror.resume_lifecycle();
    rig.net.run_until(50_000);
    assert_eq!(
        rig.srv.mirror_directory().entry(&location).unwrap().health,
        MirrorHealth::Healthy
    );
}

/// Closed sessions must leave the tracker without anybody calling
/// `prune` by hand: the lifecycle task of every self-driving bootloader
/// sweeps the tracking table on a 30s cadence (the cadence idea of the
/// server's failure detection) while a session is tracked.
#[test]
fn scheduled_maintenance_prunes_closed_sessions_from_the_tracker() {
    let rig = rig();
    let boot = Bootloader::new(
        &rig.net,
        Addr::new("app", 1),
        BootloaderConfig::same_host()
            .trusting(rig.srv.certificate())
            .with_lifecycle(LifecyclePolicy::driven(Duration::from_secs(60))),
    );
    let task = boot.lifecycle_task().expect("lifecycle registered");

    let props = ConnectProps::user("admin", "admin");
    let keep = boot.connect(&rig.url, &props).unwrap();
    assert!(task.is_scheduled());
    let mut gone_a = boot.connect(&rig.url, &props).unwrap();
    let mut gone_b = boot.connect(&rig.url, &props).unwrap();
    assert_eq!(boot.tracker().tracked_len(), 3);
    gone_a.close().unwrap();
    gone_b.close().unwrap();
    // Closed sessions leave the live set immediately…
    assert_eq!(boot.tracker().total_live(), 1);

    // …and the sweep fires on its own 30s cadence (the same cadence
    // idea as the server's failure detection), keeping the table
    // converged onto the live set with no manual prune() anywhere.
    let now = rig.net.clock().now_ms();
    rig.net.run_until(now + 90_001);
    assert_eq!(boot.tracker().tracked_len(), 1);
    assert_eq!(boot.tracker().total_live(), 1);
    assert_eq!(task.stats().runs, 3, "30s cadence over 90s of virtual time");
    assert_eq!(task.stats().errors, 0);
    drop(keep);
}

/// The sweep is off the schedule while nothing is tracked: an idle
/// bootloader's lifecycle task fires not at all, the next `connect` arms
/// the sweep at its next 30 s tick, it sweeps every tick while a session
/// is tracked, and once a sweep finds the table empty it stops.
#[test]
fn an_idle_bootloader_sweeps_nothing_until_a_session_opens() {
    const MINUTE: u64 = 60_000;
    let rig = rig();
    let registered_at = rig.net.clock().now_ms();
    let boot = Bootloader::new(
        &rig.net,
        Addr::new("app", 1),
        BootloaderConfig::same_host()
            .trusting(rig.srv.certificate())
            .with_lifecycle(LifecyclePolicy::driven(Duration::from_secs(60))),
    );
    let sweep = boot.lifecycle_task().expect("lifecycle registered");
    rig.net.run_until(10 * MINUTE);
    assert_eq!(sweep.stats().runs, 0, "an idle bootloader swept");
    assert!(!sweep.is_scheduled(), "armed with nothing due");

    let mut conn = boot
        .connect(&rig.url, &ConnectProps::user("admin", "admin"))
        .unwrap();
    let now = rig.net.clock().now_ms();
    let tick = registered_at + ((now - registered_at) / 30_000 + 1) * 30_000;
    assert_eq!(sweep.next_due_ms(), Some(tick));
    rig.net.run_until(tick + 60_000);
    assert_eq!(
        sweep.stats().runs,
        3,
        "every tick while a session is tracked"
    );
    conn.close().unwrap();
    assert_eq!(boot.tracker().tracked_len(), 0);
    rig.net.run_until(tick + 10 * MINUTE);
    assert_eq!(
        sweep.stats().runs,
        4,
        "one sweep finds it empty, then sleep"
    );
}

/// A notify pipe keeps the poll on every tick: with a 60-minute lease
/// (renew-due 54 minutes out) a pushed notice is acted on at the very
/// next poll tick.
#[test]
fn a_pushed_notice_is_acted_on_at_the_next_poll_tick() {
    let rig = rig();
    let registered_at = rig.net.clock().now_ms();
    let boot = Bootloader::new(
        &rig.net,
        Addr::new("app", 1),
        BootloaderConfig::same_host()
            .trusting(rig.srv.certificate())
            .with_notify_channel()
            .with_lifecycle(LifecyclePolicy::driven(Duration::from_secs(60))),
    );
    boot.bootstrap(&rig.url, &ConnectProps::user("admin", "admin"))
        .unwrap();
    rig.net.run_until(registered_at + 90_000);
    rig.srv
        .install_driver(&padded_record(2, DriverVersion::new(2, 0, 0)))
        .unwrap();
    rig.srv
        .add_rule(
            &PermissionRule::any(DriverId(2))
                .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit),
        )
        .unwrap();
    rig.srv.notify_upgrade("orders");
    rig.net.run_until(registered_at + 119_999);
    assert_eq!(boot.active_version(), Some(DriverVersion::new(1, 0, 0)));
    rig.net.run_until(registered_at + 120_000);
    assert_eq!(boot.active_version(), Some(DriverVersion::new(2, 0, 0)));
    assert_eq!(boot.stats().upgrades, 1);
}

/// The beats a renewing fleet does not need stay unfired: pumped over
/// three lease periods, 100 self-driving clients cost at most two
/// scheduler task executions and 1.1 polls per renewal the server
/// granted. Firing every 60 s poll and 30 s sweep costs ≈ 31 and ≈ 10.
#[test]
fn a_renewing_fleet_fires_about_one_task_per_renewal() {
    const LEASE_MS: u64 = 10 * 60_000;
    let sim = FleetSim::from_spec(SimSpec::new(100, LEASE_MS));
    sim.bootstrap_all();
    let polls = || -> u64 { sim.clients().iter().map(|c| c.stats().polls).sum() };
    let (renewals0, polls0) = (sim.server().stats().renewals, polls());
    let end = sim.net().clock().now_ms() + 3 * LEASE_MS;
    let mut tasks = 0;
    while sim.net().clock().now_ms() < end {
        tasks += sim.net().run_until(sim.net().clock().now_ms() + 60_000);
    }
    let renewals = sim.server().stats().renewals - renewals0;
    let polls = polls() - polls0;
    assert!(renewals >= 300, "{renewals} renewals granted");
    let per = |n: u64| n as f64 / renewals as f64;
    assert!(per(tasks) <= 2.0, "{tasks} tasks for {renewals} renewals");
    assert!(per(polls) <= 1.1, "{polls} polls for {renewals} renewals");
}

/// A self-driving bootloader bootstraps once and then upgrades with no
/// manual poll() anywhere: its lease auto-renewal timer fires at the
/// exact tick the lease enters RenewDue (expiry minus the 10% margin,
/// where the poll state machine renews too) and installs the new
/// version via the mirror tier.
#[test]
fn lease_timer_renews_and_upgrades_without_manual_polls() {
    let rig = rig();
    let boot = Bootloader::new(
        &rig.net,
        Addr::new("app", 1),
        BootloaderConfig::same_host()
            // Auto-renew only (no periodic poll): the upgrade must come
            // from the lease timer alone, at the renew-due tick.
            .with_lifecycle(LifecyclePolicy {
                poll_every: None,
                ..LifecyclePolicy::default()
            })
            .trusting(rig.srv.certificate())
            .trusting(rig.mirror.certificate())
            .with_depot(DriverDepot::in_memory()),
    );
    boot.bootstrap(&rig.url, &ConnectProps::user("admin", "admin"))
        .unwrap();
    assert_eq!(boot.active_version(), Some(DriverVersion::new(1, 0, 0)));
    let renew_at = boot.lifecycle_task().unwrap().next_due_ms().unwrap();
    let granted_at = rig.net.clock().now_ms();
    // The timer arms inside the renewal window: at the renew-due point
    // plus a seed-reproducible spread strictly under the margin, so the
    // renewal always lands inside the lease, never at or past expiry.
    let renew_due = granted_at + 3_600_000 - 360_000;
    let expiry = granted_at + 3_600_000;
    assert!(
        (renew_due..expiry).contains(&renew_at),
        "armed at {renew_at}, outside the renewal window [{renew_due}, {expiry})"
    );

    rig.srv
        .install_driver(&padded_record(2, DriverVersion::new(2, 0, 0)))
        .unwrap();
    rig.srv
        .add_rule(
            &PermissionRule::any(DriverId(2))
                .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::AfterCommit),
        )
        .unwrap();

    // One tick short of the renew-due point: nothing has happened.
    rig.net.run_until(renew_at - 1);
    assert_eq!(boot.active_version(), Some(DriverVersion::new(1, 0, 0)));
    // Pumping through the renew-due tick renews → upgrades → re-arms.
    rig.net.run_until(renew_at + 1);
    assert_eq!(boot.active_version(), Some(DriverVersion::new(2, 0, 0)));
    assert_eq!(boot.stats().upgrades, 1);
    assert_eq!(
        boot.stats().delta_downloads,
        1,
        "upgrade travelled as a delta"
    );
    let next = boot.lifecycle_task().unwrap().next_due_ms().unwrap();
    assert!(next > renew_at, "timer re-armed against the new lease");
}

/// Renewal failures surface on the task's error counters and retry at
/// the 30 s backoff instead of spinning or going silent.
#[test]
fn failed_renewals_count_on_the_lease_task_and_retry() {
    let rig = rig();
    let boot = Bootloader::new(
        &rig.net,
        Addr::new("app", 1),
        BootloaderConfig::same_host()
            .with_lifecycle(LifecyclePolicy {
                poll_every: None,
                ..LifecyclePolicy::default()
            })
            .trusting(rig.srv.certificate()),
    );
    boot.bootstrap(&rig.url, &ConnectProps::user("admin", "admin"))
        .unwrap();
    let renew_at = boot.lifecycle_task().unwrap().next_due_ms().unwrap();
    rig.net.with_faults(|f| f.take_down("db1"));
    rig.net.run_until(renew_at + 1);
    let task = boot.lifecycle_task().unwrap();
    assert_eq!(task.stats().errors, 1);
    assert!(task.last_error().unwrap().contains("renewal failed"));
    // Driver kept (§4.1.3), retry armed one backoff after the failed
    // firing.
    assert_eq!(boot.active_version(), Some(DriverVersion::new(1, 0, 0)));
    let retry_at = task.next_due_ms().unwrap();
    assert_eq!(retry_at, renew_at + 30_000);
    // Two more failed retries, then the server comes back and the very
    // next retry renews.
    rig.net.run_until(retry_at + 30_001);
    assert_eq!(task.stats().errors, 3);
    rig.net.with_faults(|f| f.restore("db1"));
    rig.net.run_until(rig.net.clock().now_ms() + 30_001);
    assert_eq!(task.stats().consecutive_errors, 0);
    assert!(boot.stats().renewals >= 1);
}

/// A bootloader that polls, auto-renews, sweeps and hot-swaps runs all
/// four jobs on one scheduler task, and dropping it leaves none.
#[test]
fn a_driven_hot_swap_bootloader_registers_one_task_and_dropping_it_leaves_none() {
    let rig = rig();
    let before = rig.net.scheduler().task_count();
    let boot = Bootloader::new(
        &rig.net,
        Addr::new("app", 1),
        BootloaderConfig::same_host()
            .self_driving(Duration::from_secs(60))
            .with_hot_swap(SwapConfig::default())
            .trusting(rig.srv.certificate()),
    );
    assert_eq!(rig.net.scheduler().task_count(), before + 1);
    let conn = boot
        .connect(&rig.url, &ConnectProps::user("admin", "admin"))
        .unwrap();
    rig.net.run_until(rig.net.clock().now_ms() + 10 * 60_000);
    assert_eq!(rig.net.scheduler().task_count(), before + 1);
    assert!(boot.lifecycle_task().unwrap().stats().runs > 0);
    drop(conn);
    drop(boot);
    assert_eq!(rig.net.scheduler().task_count(), before);
}

/// The renew storm's shape at 200 clients: self-driving clients on a
/// fully seated licence table, bootstrapped through `connect` at virtual
/// time 0 and placed in two zones, renew exactly once per lease over
/// three leases. Each renewal charges its round trip to the one virtual
/// clock, so a wave of renewals leaves the clock ahead of the pump's
/// turns. Checked at 600 ms, 800 ms and 2 s round trips, 200 clients
/// charge a wave ≈ 120 s (a little more than drvbench's 10 000 clients at
/// 10 ms), ≈ 160 s and ≈ 400 s (more than six poll intervals). The poll
/// is armed at the first tick whose turn, that late, comes with the clock
/// at its renew-due point, so no client's renewal slips from one lease to
/// the next; a lease timer alone (`poll_every: None`) fires late by the
/// wave's charge, the lateness accumulates, and some clients' third
/// renewal falls past the three leases.
#[test]
fn every_self_driving_client_renews_exactly_once_per_lease() {
    for one_way_ms in [300, 400, 1_000] {
        renews_once_per_lease_at(one_way_ms);
    }
}

/// [`every_self_driving_client_renews_exactly_once_per_lease`] at one
/// cross-zone one-way latency.
fn renews_once_per_lease_at(one_way_ms: u64) {
    const CLIENTS: usize = 200;
    const LEASE_MS: u64 = 10 * 60_000;
    let sim = FleetSim::build_with_lifecycle(
        CLIENTS,
        LEASE_MS,
        false,
        0,
        LifecyclePolicy::driven(DEFAULT_POLL_EVERY),
    );
    sim.server().licenses().set_limit(DriverId(1), CLIENTS);
    let props = ConnectProps::user("admin", "admin");
    for c in sim.clients() {
        drop(c.connect(sim.url(), &props).unwrap());
    }
    sim.net().with_topology(|t| {
        t.set_default_latency(one_way_ms, one_way_ms);
        t.place("db1", "za");
        for (i, c) in sim.clients().iter().enumerate() {
            t.place(c.local_addr().host(), if i % 2 == 0 { "za" } else { "zb" });
        }
    });
    let start = sim.net().clock().now_ms();
    let granted0 = sim.server().stats().renewals;
    let mut now = start;
    while now < start + 3 * LEASE_MS {
        now += 1_000;
        sim.net().run_until(now);
    }
    let granted = sim.server().stats().renewals - granted0;
    assert_eq!(granted, 3 * CLIENTS as u64, "at {one_way_ms} ms one way");
    for c in sim.clients() {
        let st = c.stats();
        assert_eq!(
            (st.renewals, st.failed_renewals),
            (3, 0),
            "{} at {one_way_ms} ms one way",
            c.local_addr()
        );
    }
    assert_eq!(sim.net().scheduler().task_count(), CLIENTS + 1);
}

/// A poll one tick short of its renew-due point renews when its turn
/// comes late. A task registered first charges 50 s to the clock on every
/// 60 s tick, so the bootloader's turns come 50 s late. After a renewal
/// at a turn that late, the next poll is armed on the tick before the
/// first tick at or after renew-due, and its turn comes with the clock
/// at renew-due. Once the charging stops, that tick's turn comes early:
/// it re-arms without polling, and the next tick renews.
#[test]
fn a_poll_one_tick_short_of_renew_due_renews_when_its_turn_comes_late() {
    const TICK: u64 = 60_000;
    const CHARGE: u64 = 50_000;
    let rig = rig();
    let charging = Arc::new(AtomicBool::new(true));
    let (clock, on) = (rig.net.clock().clone(), charging.clone());
    rig.net.scheduler().every(
        Duration::from_millis(TICK),
        Duration::ZERO,
        "slow",
        move || {
            if on.load(Ordering::SeqCst) {
                clock.advance_ms(CHARGE);
            }
            Ok(TaskControl::Continue)
        },
    );
    let boot = Bootloader::new(
        &rig.net,
        Addr::new("app", 1),
        BootloaderConfig::same_host()
            .trusting(rig.srv.certificate())
            .with_lifecycle(LifecyclePolicy {
                auto_renew: false,
                ..LifecyclePolicy::driven(Duration::from_millis(TICK))
            }),
    );
    boot.bootstrap(&rig.url, &ConnectProps::user("admin", "admin"))
        .unwrap();
    let task = boot.lifecycle_task().unwrap();
    // A 60-minute lease granted at 0 is renew-due at 54 minutes, a tick.
    assert_eq!(task.next_due_ms(), Some(54 * TICK));
    rig.net.run_until(54 * TICK);
    assert_eq!(boot.take_renewal_times(), vec![54 * TICK + CHARGE]);
    // Renew-due at 108 min 50 s: the tick before 109 min is armed.
    assert_eq!(task.next_due_ms(), Some(108 * TICK));
    rig.net.run_until(108 * TICK);
    assert_eq!(boot.take_renewal_times(), vec![108 * TICK + CHARGE]);
    // Renew-due at 162 min 50 s; the 162 min tick's turn now comes on time.
    assert_eq!(task.next_due_ms(), Some(162 * TICK));
    charging.store(false, Ordering::SeqCst);
    let polls = boot.stats().polls;
    rig.net.run_until(162 * TICK);
    assert_eq!(boot.stats().polls, polls, "an early turn does not poll");
    assert_eq!(task.next_due_ms(), Some(163 * TICK));
    rig.net.run_until(163 * TICK);
    assert_eq!(boot.take_renewal_times(), vec![163 * TICK]);
    assert_eq!(boot.stats().renewals, 3);
}

/// Same seed ⇒ same schedule, end to end: two identically-built worlds
/// with jittered heartbeat and poll tasks replay the identical sequence
/// of virtual firing times.
#[test]
fn jittered_schedules_replay_identically_under_one_seed() {
    let trace = |seed: u64| -> (Vec<u64>, u64) {
        let net = Network::new();
        net.scheduler().reseed(seed);
        let times = Arc::new(parking_lot_times::Times::default());
        for i in 0..4 {
            let t = times.clone();
            let c = net.clock().clone();
            net.scheduler().every(
                Duration::from_secs(5),
                Duration::from_secs(2),
                format!("jittered-{i}"),
                move || {
                    t.push(c.now_ms());
                    Ok(TaskControl::Continue)
                },
            );
        }
        let fired = net.run_until(120_000);
        (times.snapshot(), fired)
    };
    let (a, fired_a) = trace(7);
    let (b, fired_b) = trace(7);
    assert_eq!(a, b, "same seed must replay the same schedule");
    assert_eq!(fired_a, fired_b);
    let (c, _) = trace(8);
    assert_ne!(a, c, "a different seed must produce a different schedule");
}

/// Tiny helper so the closure capture stays `Send + Sync` without
/// pulling a mutex type into every test line.
mod parking_lot_times {
    #[derive(Default)]
    pub(crate) struct Times(std::sync::Mutex<Vec<u64>>);
    impl Times {
        pub(crate) fn push(&self, t: u64) {
            self.0.lock().unwrap().push(t);
        }
        pub(crate) fn snapshot(&self) -> Vec<u64> {
            self.0.lock().unwrap().clone()
        }
    }
}

/// The replay contract behind every determinism gate: the scheduler
/// seeds each task's jitter from its registration index, so the number,
/// order and names of the tasks each component registers must not move.
/// A refactor that adds, drops, merges or reorders one shifts every
/// later task's schedule (and with it `converge_virtual_ms`).
#[test]
fn components_register_their_tasks_in_a_pinned_order() {
    let rig = rig();
    // A second mirror whose primary is not up: its launch announce
    // fails, so it also registers the announce-retry task.
    let orphan = MirrorDepot::launch(
        &rig.net,
        Addr::new("mirror2", 1072),
        Addr::new("not-up-yet", DRIVOLUTION_PORT),
    )
    .unwrap();
    let boot = Bootloader::new(
        &rig.net,
        Addr::new("app", 1),
        BootloaderConfig::same_host()
            .self_driving(Duration::from_secs(60))
            .with_hot_swap(SwapConfig::default())
            .trusting(rig.srv.certificate()),
    );
    assert_eq!(
        rig.net.scheduler().task_names(),
        [
            "server-maintenance:db1",
            "mirror-heartbeat mirror1:1071",
            "mirror-heartbeat mirror2:1072",
            "mirror-announce mirror2:1072",
            "lifecycle app:1",
        ]
    );
    // Dropping a component retires exactly its own tasks.
    drop(boot);
    drop(orphan);
    rig.net.unbind(&Addr::new("mirror2", 1072));
    assert_eq!(
        rig.net.scheduler().task_names(),
        ["server-maintenance:db1", "mirror-heartbeat mirror1:1071"]
    );
}
