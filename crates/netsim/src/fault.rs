//! Fault injection: host failures, network partitions, message loss,
//! byzantine corruption, and latency storms.
//!
//! The Drivolution paper repeatedly reasons about failure behaviour — a
//! Drivolution server outage "only impacts new driver requests or driver
//! renewal requests" (§3.2), replicated servers remove the single point of
//! failure (§5.3.2). This module lets tests and benchmarks create exactly
//! those situations, and — via [`crate::ChaosSchedule`] — compose them
//! into seed-reproducible timelines.

use std::collections::{BTreeMap, HashSet};

/// Mutable description of the currently injected faults.
///
/// A symmetric partition between hosts `a` and `b` blocks traffic in both
/// directions; zone partitions do the same for every host pair straddling
/// two zones. A down host refuses everything. `drop_prob` models globally
/// lossy links, per-link loss models a single flapping path (directional:
/// `a → b` may be lossy while `b → a` is clean). A byzantine host has a
/// fraction of the responses it serves corrupted in flight, and the
/// latency factor multiplies every topology link latency for the duration
/// of a storm.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    partitions: HashSet<(String, String)>,
    zone_partitions: HashSet<(String, String)>,
    down_hosts: HashSet<String>,
    drop_prob: f64,
    /// Directional `(from, to)` host-pair loss probabilities.
    link_loss: BTreeMap<(String, String), f64>,
    /// Hosts whose served responses are corrupted with this probability.
    corrupt_hosts: BTreeMap<String, f64>,
    latency_factor: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            partitions: HashSet::new(),
            zone_partitions: HashSet::new(),
            down_hosts: HashSet::new(),
            drop_prob: 0.0,
            link_loss: BTreeMap::new(),
            corrupt_hosts: BTreeMap::new(),
            latency_factor: 1,
        }
    }
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    fn key(a: &str, b: &str) -> (String, String) {
        if a <= b {
            (a.to_string(), b.to_string())
        } else {
            (b.to_string(), a.to_string())
        }
    }

    /// Installs a symmetric partition between two hosts.
    pub fn partition(&mut self, a: &str, b: &str) {
        self.partitions.insert(Self::key(a, b));
    }

    /// Removes the partition between two hosts, if any.
    pub fn heal(&mut self, a: &str, b: &str) {
        self.partitions.remove(&Self::key(a, b));
    }

    /// Removes every host and zone partition.
    pub fn heal_all(&mut self) {
        self.partitions.clear();
        self.zone_partitions.clear();
    }

    /// Returns `true` when traffic between the two hosts is blocked by a
    /// host-pair partition.
    pub fn is_partitioned(&self, a: &str, b: &str) -> bool {
        !self.partitions.is_empty() && self.partitions.contains(&Self::key(a, b))
    }

    /// Installs a symmetric partition between two *zones*: every message
    /// whose endpoints are placed in `a` and `b` is blocked until
    /// [`heal_zones`](Self::heal_zones). Hosts outside either zone are
    /// unaffected.
    pub fn partition_zones(&mut self, a: &str, b: &str) {
        self.zone_partitions.insert(Self::key(a, b));
    }

    /// Removes the partition between two zones, if any.
    pub fn heal_zones(&mut self, a: &str, b: &str) {
        self.zone_partitions.remove(&Self::key(a, b));
    }

    /// Returns `true` when traffic between the two zones is blocked.
    pub fn zones_partitioned(&self, a: &str, b: &str) -> bool {
        !self.zone_partitions.is_empty() && self.zone_partitions.contains(&Self::key(a, b))
    }

    /// Marks a host as crashed: all its services become unreachable.
    pub fn take_down(&mut self, host: &str) {
        self.down_hosts.insert(host.to_string());
    }

    /// Restores a crashed host.
    pub fn restore(&mut self, host: &str) {
        self.down_hosts.remove(host);
    }

    /// Returns `true` when the host is currently down.
    pub fn is_down(&self, host: &str) -> bool {
        self.down_hosts.contains(host)
    }

    /// Sets the independent per-message loss probability (clamped to
    /// `[0, 1]`).
    pub fn set_drop_prob(&mut self, p: f64) {
        self.drop_prob = p.clamp(0.0, 1.0);
    }

    /// Current per-message loss probability.
    pub fn drop_prob(&self) -> f64 {
        self.drop_prob
    }

    /// Sets a *directional* loss probability on the `from → to` host
    /// link (clamped to `[0, 1]`; zero clears the entry). The reverse
    /// direction keeps its own, independent probability — an asymmetric
    /// link drops requests one way while replies flow clean the other.
    pub fn set_link_loss(&mut self, from: &str, to: &str, p: f64) {
        let p = p.clamp(0.0, 1.0);
        let key = (from.to_string(), to.to_string());
        if p == 0.0 {
            self.link_loss.remove(&key);
        } else {
            self.link_loss.insert(key, p);
        }
    }

    /// Directional loss probability on the `from → to` host link (zero
    /// when unconfigured).
    pub fn link_loss(&self, from: &str, to: &str) -> f64 {
        if self.link_loss.is_empty() {
            return 0.0;
        }
        self.link_loss
            .get(&(from.to_string(), to.to_string()))
            .copied()
            .unwrap_or(0.0)
    }

    /// Marks `host` as byzantine: each response it serves is corrupted
    /// in flight with probability `p` (clamped to `[0, 1]`; zero clears
    /// the flag). Corruption flips payload bytes, so digest- and
    /// checksum-verifying clients detect it — the point is exercising
    /// their *reaction*, not smuggling bad bytes past them.
    pub fn corrupt_serves(&mut self, host: &str, p: f64) {
        let p = p.clamp(0.0, 1.0);
        if p == 0.0 {
            self.corrupt_hosts.remove(host);
        } else {
            self.corrupt_hosts.insert(host.to_string(), p);
        }
    }

    /// Probability that a response served by `host` is corrupted (zero
    /// for honest hosts).
    pub fn corrupt_prob(&self, host: &str) -> f64 {
        self.corrupt_hosts.get(host).copied().unwrap_or(0.0)
    }

    /// Sets the latency-storm multiplier applied to every topology link
    /// latency (clamped to at least 1, the calm default).
    pub fn set_latency_factor(&mut self, factor: u64) {
        self.latency_factor = factor.max(1);
    }

    /// Current latency multiplier (1 outside a storm).
    pub fn latency_factor(&self) -> u64 {
        self.latency_factor
    }

    /// Returns `true` when the plan injects no fault at all: no
    /// partition, down host, loss, corruption or storm. A message under
    /// a calm plan needs no host or zone lookup and draws nothing.
    pub(crate) fn is_calm(&self) -> bool {
        self.partitions.is_empty()
            && self.zone_partitions.is_empty()
            && self.down_hosts.is_empty()
            && self.drop_prob == 0.0
            && self.link_loss.is_empty()
            && self.corrupt_hosts.is_empty()
            && self.latency_factor == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_are_symmetric() {
        let mut p = FaultPlan::new();
        p.partition("a", "b");
        assert!(p.is_partitioned("a", "b"));
        assert!(p.is_partitioned("b", "a"));
        p.heal("b", "a");
        assert!(!p.is_partitioned("a", "b"));
    }

    #[test]
    fn heal_all_clears_everything() {
        let mut p = FaultPlan::new();
        p.partition("a", "b");
        p.partition("c", "d");
        p.partition_zones("east", "west");
        p.heal_all();
        assert!(!p.is_partitioned("a", "b"));
        assert!(!p.is_partitioned("c", "d"));
        assert!(!p.zones_partitioned("east", "west"));
    }

    #[test]
    fn zone_partitions_are_symmetric_and_heal() {
        let mut p = FaultPlan::new();
        p.partition_zones("east", "west");
        assert!(p.zones_partitioned("east", "west"));
        assert!(p.zones_partitioned("west", "east"));
        assert!(!p.zones_partitioned("east", "south"));
        p.heal_zones("west", "east");
        assert!(!p.zones_partitioned("east", "west"));
    }

    #[test]
    fn down_hosts_toggle() {
        let mut p = FaultPlan::new();
        p.take_down("db1");
        assert!(p.is_down("db1"));
        p.restore("db1");
        assert!(!p.is_down("db1"));
    }

    #[test]
    fn drop_prob_is_clamped() {
        let mut p = FaultPlan::new();
        p.set_drop_prob(3.0);
        assert_eq!(p.drop_prob(), 1.0);
        p.set_drop_prob(-1.0);
        assert_eq!(p.drop_prob(), 0.0);
    }

    #[test]
    fn link_loss_is_directional() {
        let mut p = FaultPlan::new();
        p.set_link_loss("a", "b", 0.4);
        assert_eq!(p.link_loss("a", "b"), 0.4);
        assert_eq!(p.link_loss("b", "a"), 0.0, "reverse direction is clean");
        p.set_link_loss("a", "b", 0.0);
        assert_eq!(p.link_loss("a", "b"), 0.0);
    }

    #[test]
    fn corrupt_hosts_toggle_and_clamp() {
        let mut p = FaultPlan::new();
        p.corrupt_serves("evil", 2.0);
        assert_eq!(p.corrupt_prob("evil"), 1.0);
        assert_eq!(p.corrupt_prob("honest"), 0.0);
        p.corrupt_serves("evil", 0.0);
        assert_eq!(p.corrupt_prob("evil"), 0.0);
    }

    #[test]
    fn a_plan_is_calm_until_any_fault_is_installed() {
        let installs: [fn(&mut FaultPlan); 7] = [
            |p| p.partition("a", "b"),
            |p| p.partition_zones("east", "west"),
            |p| p.take_down("a"),
            |p| p.set_drop_prob(0.1),
            |p| p.set_link_loss("a", "b", 0.1),
            |p| p.corrupt_serves("a", 0.1),
            |p| p.set_latency_factor(2),
        ];
        assert!(FaultPlan::new().is_calm());
        for install in installs {
            let mut p = FaultPlan::new();
            install(&mut p);
            assert!(!p.is_calm(), "{p:?}");
        }
        let mut p = FaultPlan::new();
        p.take_down("a");
        p.restore("a");
        p.set_link_loss("a", "b", 0.5);
        p.set_link_loss("a", "b", 0.0);
        p.set_latency_factor(3);
        p.set_latency_factor(1);
        assert!(p.is_calm(), "cleared faults leave a calm plan");
    }

    #[test]
    fn latency_factor_defaults_calm_and_never_zero() {
        let mut p = FaultPlan::new();
        assert_eq!(p.latency_factor(), 1);
        p.set_latency_factor(8);
        assert_eq!(p.latency_factor(), 8);
        p.set_latency_factor(0);
        assert_eq!(p.latency_factor(), 1);
    }
}
