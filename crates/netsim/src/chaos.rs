//! Declarative, seed-reproducible fault timelines.
//!
//! A [`ChaosSchedule`] is a list of `(virtual time, fault action)`
//! events. [`ChaosSchedule::install`] registers each event as a one-shot
//! [`crate::Scheduler`] task, so the same [`crate::Network::run_until`]
//! pump that drives heartbeats and lease renewals also flips faults on
//! and off — faults, timers, and traffic interleave on one timeline and
//! replay identically under one seed. Windowed helpers
//! ([`ChaosSchedule::byzantine_mirror`], [`ChaosSchedule::zone_partition`],
//! [`ChaosSchedule::latency_storm`], …) emit the begin/end event pair.
//!
//! All randomness downstream of a schedule (drop draws, corruption
//! draws) comes from the network's reseedable RNG — a schedule itself is
//! pure data and contributes none of its own.
//!
//! # Examples
//!
//! ```
//! use netsim::{ChaosSchedule, Network};
//!
//! let net = Network::new();
//! let installed = ChaosSchedule::new()
//!     .byzantine_mirror("mirror-b", 0.25, 0, 60_000)
//!     .zone_partition("east", "west", 5_000, 20_000)
//!     .latency_storm(8, 10_000, 30_000)
//!     .install(&net);
//! assert_eq!(installed, 6); // three windows, begin + end each
//! net.run_until(60_000); // events fire as virtual time passes
//! ```

use crate::fault::FaultPlan;
use crate::net::Network;
use crate::sched::TaskControl;

/// One fault-plan mutation at a scheduled instant.
#[derive(Clone, Debug, PartialEq)]
pub enum ChaosAction {
    /// Begin corrupting a fraction of the responses `host` serves.
    CorruptServes {
        /// Byzantine host.
        host: String,
        /// Per-response corruption probability.
        prob: f64,
    },
    /// Stop corrupting `host`'s responses.
    HealServes {
        /// Formerly byzantine host.
        host: String,
    },
    /// Install a symmetric partition between two zones.
    PartitionZones {
        /// One zone.
        a: String,
        /// The other zone.
        b: String,
    },
    /// Heal the partition between two zones.
    HealZones {
        /// One zone.
        a: String,
        /// The other zone.
        b: String,
    },
    /// Install a symmetric partition between two hosts.
    PartitionHosts {
        /// One host.
        a: String,
        /// The other host.
        b: String,
    },
    /// Heal the partition between two hosts.
    HealHosts {
        /// One host.
        a: String,
        /// The other host.
        b: String,
    },
    /// Set the directional loss probability of one host link.
    LinkLoss {
        /// Sending host.
        from: String,
        /// Receiving host.
        to: String,
        /// Loss probability (zero clears).
        prob: f64,
    },
    /// Set the global per-message loss probability.
    DropProb {
        /// Loss probability (zero clears).
        prob: f64,
    },
    /// Multiply every topology link latency by `factor`.
    LatencyFactor {
        /// Multiplier (1 is calm).
        factor: u64,
    },
    /// Crash a host.
    TakeDown {
        /// Host to crash.
        host: String,
    },
    /// Restore a crashed host.
    Restore {
        /// Host to restore.
        host: String,
    },
}

impl ChaosAction {
    fn apply(&self, f: &mut FaultPlan) {
        match self {
            ChaosAction::CorruptServes { host, prob } => f.corrupt_serves(host, *prob),
            ChaosAction::HealServes { host } => f.corrupt_serves(host, 0.0),
            ChaosAction::PartitionZones { a, b } => f.partition_zones(a, b),
            ChaosAction::HealZones { a, b } => f.heal_zones(a, b),
            ChaosAction::PartitionHosts { a, b } => f.partition(a, b),
            ChaosAction::HealHosts { a, b } => f.heal(a, b),
            ChaosAction::LinkLoss { from, to, prob } => f.set_link_loss(from, to, *prob),
            ChaosAction::DropProb { prob } => f.set_drop_prob(*prob),
            ChaosAction::LatencyFactor { factor } => f.set_latency_factor(*factor),
            ChaosAction::TakeDown { host } => f.take_down(host),
            ChaosAction::Restore { host } => f.restore(host),
        }
    }

    fn label(&self) -> String {
        match self {
            ChaosAction::CorruptServes { host, .. } => format!("chaos-corrupt-{host}"),
            ChaosAction::HealServes { host } => format!("chaos-heal-serves-{host}"),
            ChaosAction::PartitionZones { a, b } => format!("chaos-partition-{a}-{b}"),
            ChaosAction::HealZones { a, b } => format!("chaos-heal-{a}-{b}"),
            ChaosAction::PartitionHosts { a, b } => format!("chaos-partition-{a}-{b}"),
            ChaosAction::HealHosts { a, b } => format!("chaos-heal-{a}-{b}"),
            ChaosAction::LinkLoss { from, to, .. } => format!("chaos-link-{from}-{to}"),
            ChaosAction::DropProb { .. } => "chaos-drop-prob".to_string(),
            ChaosAction::LatencyFactor { .. } => "chaos-latency-factor".to_string(),
            ChaosAction::TakeDown { host } => format!("chaos-down-{host}"),
            ChaosAction::Restore { host } => format!("chaos-restore-{host}"),
        }
    }
}

/// A declarative fault timeline: `(at_ms, action)` events installed as
/// one-shot scheduler tasks. Build with the windowed helpers (each emits
/// a begin/end pair) or [`ChaosSchedule::at`] for raw events, then
/// [`install`](ChaosSchedule::install) onto a network.
#[derive(Clone, Debug, Default)]
pub struct ChaosSchedule {
    events: Vec<(u64, ChaosAction)>,
}

impl ChaosSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        ChaosSchedule::default()
    }

    /// Appends a raw event at absolute virtual time `at_ms`.
    #[must_use]
    pub fn at(mut self, at_ms: u64, action: ChaosAction) -> Self {
        self.events.push((at_ms, action));
        self
    }

    /// `host` serves corrupted responses with probability `prob` during
    /// `[from_ms, until_ms)`.
    #[must_use]
    pub fn byzantine_mirror(self, host: &str, prob: f64, from_ms: u64, until_ms: u64) -> Self {
        self.at(
            from_ms,
            ChaosAction::CorruptServes {
                host: host.to_string(),
                prob,
            },
        )
        .at(
            until_ms,
            ChaosAction::HealServes {
                host: host.to_string(),
            },
        )
    }

    /// Zones `a` and `b` are partitioned during `[from_ms, until_ms)`,
    /// then heal.
    #[must_use]
    pub fn zone_partition(self, a: &str, b: &str, from_ms: u64, until_ms: u64) -> Self {
        self.at(
            from_ms,
            ChaosAction::PartitionZones {
                a: a.to_string(),
                b: b.to_string(),
            },
        )
        .at(
            until_ms,
            ChaosAction::HealZones {
                a: a.to_string(),
                b: b.to_string(),
            },
        )
    }

    /// Hosts `a` and `b` are partitioned during `[from_ms, until_ms)`,
    /// then heal.
    #[must_use]
    pub fn host_partition(self, a: &str, b: &str, from_ms: u64, until_ms: u64) -> Self {
        self.at(
            from_ms,
            ChaosAction::PartitionHosts {
                a: a.to_string(),
                b: b.to_string(),
            },
        )
        .at(
            until_ms,
            ChaosAction::HealHosts {
                a: a.to_string(),
                b: b.to_string(),
            },
        )
    }

    /// The directional `from → to` link drops messages with probability
    /// `prob` during `[from_ms, until_ms)` (asymmetric: the reverse
    /// direction is untouched).
    #[must_use]
    pub fn link_loss(self, from: &str, to: &str, prob: f64, from_ms: u64, until_ms: u64) -> Self {
        self.at(
            from_ms,
            ChaosAction::LinkLoss {
                from: from.to_string(),
                to: to.to_string(),
                prob,
            },
        )
        .at(
            until_ms,
            ChaosAction::LinkLoss {
                from: from.to_string(),
                to: to.to_string(),
                prob: 0.0,
            },
        )
    }

    /// Every message is independently lost with probability `prob`
    /// during `[from_ms, until_ms)`.
    #[must_use]
    pub fn loss_window(self, prob: f64, from_ms: u64, until_ms: u64) -> Self {
        self.at(from_ms, ChaosAction::DropProb { prob })
            .at(until_ms, ChaosAction::DropProb { prob: 0.0 })
    }

    /// Every topology link latency is multiplied by `factor` during
    /// `[from_ms, until_ms)`.
    #[must_use]
    pub fn latency_storm(self, factor: u64, from_ms: u64, until_ms: u64) -> Self {
        self.at(from_ms, ChaosAction::LatencyFactor { factor })
            .at(until_ms, ChaosAction::LatencyFactor { factor: 1 })
    }

    /// `host` is down during `[from_ms, until_ms)`, then restored.
    #[must_use]
    pub fn host_outage(self, host: &str, from_ms: u64, until_ms: u64) -> Self {
        self.at(
            from_ms,
            ChaosAction::TakeDown {
                host: host.to_string(),
            },
        )
        .at(
            until_ms,
            ChaosAction::Restore {
                host: host.to_string(),
            },
        )
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[(u64, ChaosAction)] {
        &self.events
    }

    /// Registers every event as a one-shot task on `net`'s scheduler
    /// (events already in the past fire at the next pump). Events are
    /// registered in chronological order — ties resolve by builder
    /// insertion order — so replay is stable regardless of how the
    /// schedule was assembled. Returns the number of events installed.
    pub fn install(&self, net: &Network) -> usize {
        let mut ordered: Vec<(usize, &(u64, ChaosAction))> =
            self.events.iter().enumerate().collect();
        ordered.sort_by_key(|(idx, (at, _))| (*at, *idx));
        for (_, (at_ms, action)) in &ordered {
            let action = (*action).clone();
            let label = action.label();
            let fault_net = net.clone();
            net.scheduler().once_at(*at_ms, label, move || {
                fault_net.with_faults(|f| action.apply(f));
                Ok(TaskControl::Done)
            });
        }
        ordered.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_emit_begin_and_end_events() {
        let s = ChaosSchedule::new()
            .byzantine_mirror("evil", 0.25, 10, 50)
            .zone_partition("east", "west", 20, 40)
            .latency_storm(8, 30, 60)
            .link_loss("a", "b", 0.5, 5, 15)
            .loss_window(0.3, 0, 100)
            .host_outage("db1", 70, 80);
        assert_eq!(s.events().len(), 12);
    }

    #[test]
    fn install_applies_events_as_time_passes() {
        let net = Network::new();
        let installed = ChaosSchedule::new()
            .byzantine_mirror("evil", 0.25, 100, 300)
            .zone_partition("east", "west", 150, 250)
            .latency_storm(8, 200, 400)
            .install(&net);
        assert_eq!(installed, 6);

        assert_eq!(net.with_faults(|f| f.corrupt_prob("evil")), 0.0);
        net.run_until(100);
        assert_eq!(net.with_faults(|f| f.corrupt_prob("evil")), 0.25);
        net.run_until(175);
        assert!(net.with_faults(|f| f.zones_partitioned("east", "west")));
        net.run_until(200);
        assert_eq!(net.with_faults(|f| f.latency_factor()), 8);
        net.run_until(300);
        assert_eq!(net.with_faults(|f| f.corrupt_prob("evil")), 0.0);
        assert!(!net.with_faults(|f| f.zones_partitioned("east", "west")));
        net.run_until(400);
        assert_eq!(net.with_faults(|f| f.latency_factor()), 1);
    }

    #[test]
    fn install_order_is_chronological_regardless_of_build_order() {
        // Two schedules with the same events appended in different
        // orders must install identical timelines (ties keep insertion
        // order). Observe via the fault plan at each instant.
        let run = |s: &ChaosSchedule| {
            let net = Network::new();
            s.install(&net);
            net.run_until(500);
            net.with_faults(|f| (f.drop_prob(), f.latency_factor()))
        };
        let a = ChaosSchedule::new()
            .loss_window(0.3, 100, 600)
            .latency_storm(4, 200, 700);
        let b = ChaosSchedule::new()
            .latency_storm(4, 200, 700)
            .loss_window(0.3, 100, 600);
        assert_eq!(run(&a), run(&b));
        assert_eq!(run(&a), (0.3, 4));
    }

    #[test]
    fn past_events_fire_at_the_next_pump() {
        let net = Network::new();
        net.clock().advance_ms(1_000);
        ChaosSchedule::new()
            .at(0, ChaosAction::DropProb { prob: 0.5 })
            .install(&net);
        assert_eq!(net.with_faults(|f| f.drop_prob()), 0.0);
        net.run_until(1_001);
        assert_eq!(net.with_faults(|f| f.drop_prob()), 0.5);
    }
}
