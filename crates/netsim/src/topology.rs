//! Zone and latency topology.
//!
//! The mirror tier reasons about *locality*: a client should fetch bulk
//! chunk data from a replica in its own zone. To make that measurable
//! rather than cosmetic, hosts can be placed in named zones and every
//! delivered message is charged a same-zone or cross-zone latency
//! against the shared simulated [`crate::Clock`]. Components then observe latency
//! the same way they observe time — through the clock — so fetch-latency
//! percentiles fall out of ordinary clock reads.
//!
//! Unplaced hosts cost zero, so existing single-zone tests and
//! benchmarks are unaffected.

use std::collections::HashMap;

/// Host→zone placement plus same-zone and cross-zone latencies.
///
/// Latencies are one-way milliseconds; a request/response exchange
/// traverses the link twice. Lookups between hosts where either side is
/// unplaced return zero.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    zones: HashMap<String, String>,
    same_zone_ms: u64,
    cross_zone_ms: u64,
}

impl Topology {
    /// An empty topology: no zones, every link free.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Places `host` in `zone` (replacing any previous placement).
    pub fn place(&mut self, host: impl Into<String>, zone: impl Into<String>) {
        self.zones.insert(host.into(), zone.into());
    }

    /// The zone `host` was placed in, if any.
    pub fn zone_of(&self, host: &str) -> Option<&str> {
        self.zones.get(host).map(String::as_str)
    }

    /// Sets the one-way latencies between two hosts in one zone and in
    /// two different zones.
    pub fn set_default_latency(&mut self, same_zone_ms: u64, cross_zone_ms: u64) {
        self.same_zone_ms = same_zone_ms;
        self.cross_zone_ms = cross_zone_ms;
    }

    /// One-way latency between two hosts. Zero when either host is
    /// unplaced (the topology knows nothing about it).
    pub fn latency_ms(&self, from_host: &str, to_host: &str) -> u64 {
        let (Some(a), Some(b)) = (self.zones.get(from_host), self.zones.get(to_host)) else {
            return 0;
        };
        if a == b {
            self.same_zone_ms
        } else {
            self.cross_zone_ms
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unplaced_hosts_cost_nothing() {
        let mut t = Topology::new();
        t.set_default_latency(1, 25);
        assert_eq!(t.latency_ms("a", "b"), 0);
        t.place("a", "east");
        assert_eq!(t.latency_ms("a", "b"), 0);
    }

    #[test]
    fn defaults_split_same_and_cross_zone() {
        let mut t = Topology::new();
        t.set_default_latency(1, 25);
        t.place("a1", "east");
        t.place("a2", "east");
        t.place("b1", "west");
        assert_eq!(t.latency_ms("a1", "a2"), 1);
        assert_eq!(t.latency_ms("a1", "b1"), 25);
        assert_eq!(t.latency_ms("b1", "a1"), 25);
    }

    #[test]
    fn placement_is_replaceable() {
        let mut t = Topology::new();
        t.place("a", "east");
        assert_eq!(t.zone_of("a"), Some("east"));
        t.place("a", "west");
        assert_eq!(t.zone_of("a"), Some("west"));
        assert_eq!(t.zone_of("nope"), None);
    }
}
