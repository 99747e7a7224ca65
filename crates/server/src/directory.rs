//! The CDN-style mirror directory.
//!
//! Mirrors register through `MIRROR_ANNOUNCE`, prove liveness (and
//! report chunk coverage and load) through `MIRROR_HEARTBEAT`, and get
//! ranked per requesting client: healthy before overdue, same-zone
//! before cross-zone, better chunk coverage of the requested delta
//! before worse (a read-through miss on a fresh release costs a trip to
//! the primary), lightly loaded before busy, with a rotation tiebreak so
//! equal candidates share traffic. A mirror whose heartbeats stop is
//! quarantined (dropped from plans) and, after a longer silence, evicted
//! entirely.
//!
//! Silence is not the only failure mode: a *byzantine* mirror answers
//! promptly with wrong bytes. Clients detect that locally (digest and
//! checksum verification) and file `MIRROR_COMPLAINT` frames; the
//! directory keeps a sticky per-mirror strike ledger and demotes a
//! mirror once corroborated complaints cross the demotion thresholds.
//! Demotion is permanent — unlike quarantine it survives re-announce,
//! heartbeats, and sweeps.
//!
//! Heartbeats normally arrive from the mirror's own scheduler task
//! (registered at [`drivolution_depot::MirrorDepot::launch`] on the
//! network's [`netsim::Scheduler`]); the directory only ever *observes*
//! silence — it never drives anything.
//!
//! Mirrors registered manually via
//! [`crate::DrivolutionServer::register_mirror`] are *pinned*: they are
//! exempt from heartbeat expiry, matching the hand-configured tier that
//! predates the announce protocol.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use netsim::Clock;

use drivolution_core::MirrorCandidate;
use drivolution_depot::HEARTBEAT_EVERY;

/// Health lifecycle of a directory entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MirrorHealth {
    /// Heartbeating on schedule (or pinned).
    Healthy,
    /// Heartbeat overdue but below the quarantine threshold; offered
    /// last, flagged unhealthy in plans.
    Overdue,
    /// Silent past the quarantine threshold; excluded from plans until
    /// it heartbeats or re-announces.
    Quarantined,
}

/// One registered mirror as the directory sees it.
#[derive(Clone, Debug)]
pub struct MirrorEntry {
    /// `host:port` the mirror serves `CHUNK_REQUEST`s on.
    pub location: String,
    /// Zone the mirror announced itself in.
    pub zone: Option<String>,
    /// Virtual time of the last announce or heartbeat.
    pub last_seen_ms: u64,
    /// Chunk coverage count from the last heartbeat.
    pub chunk_count: u64,
    /// Chunk digests the mirror reported holding in its last heartbeat
    /// (capped at the protocol's coverage limit by the sender).
    pub coverage: BTreeSet<u64>,
    /// Cumulative served bytes from the last heartbeat.
    pub served_bytes: u64,
    /// Requests served between the last two heartbeats (ranking load).
    pub load: u32,
    /// Pinned entries (manual registration) never expire.
    pub pinned: bool,
    /// Current health classification (refreshed by every sweep).
    pub health: MirrorHealth,
    /// Corruption complaints recorded against this mirror
    /// (`MIRROR_COMPLAINT` frames). Sticky: never cleared by announce,
    /// heartbeat, or sweep.
    pub strikes: u32,
    /// Distinct client hosts that filed those strikes — demotion needs
    /// corroboration, so one confused client can't take a mirror down.
    pub complainants: BTreeSet<String>,
    /// `true` once the strike ledger crossed both demotion thresholds.
    /// Demoted mirrors are dropped from every plan and cannot re-enter
    /// by re-announcing; distinct from silence-quarantine, which heals.
    pub demoted: bool,
}

/// Silence after which an entry is `Overdue`: two missed beats at the
/// cadence every mirror heartbeats with.
const OVERDUE_AFTER_MS: u64 = 2 * HEARTBEAT_EVERY.as_millis() as u64;
/// Silence after which an entry is quarantined (excluded from plans).
const QUARANTINE_AFTER_MS: u64 = 15_000;
/// Silence after which a quarantined entry is evicted entirely.
const EVICT_AFTER_MS: u64 = 120_000;
/// Maximum candidates ranked into one chunk plan.
const MAX_CANDIDATES: usize = 3;
/// Corruption strikes required before a mirror is demoted.
const DEMOTE_STRIKES: u32 = 2;
/// Distinct complaining client hosts required before a mirror is demoted
/// (corroboration — a single client's complaints never demote on their
/// own).
const DEMOTE_REPORTERS: usize = 2;

/// What [`MirrorDirectory::complaint`] did with one complaint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComplaintOutcome {
    /// The complaint named a location the directory has never seen.
    Unknown,
    /// The strike was recorded; the mirror stays in rotation (below
    /// threshold, or already demoted).
    Recorded,
    /// This strike crossed both thresholds: the mirror was demoted now.
    Demoted,
}

/// Health-aware, locality- and coverage-aware registry of depot mirrors.
#[derive(Debug)]
pub struct MirrorDirectory {
    clock: Clock,
    entries: Mutex<BTreeMap<String, MirrorEntry>>,
    rotation: AtomicU64,
}

impl MirrorDirectory {
    /// An empty directory on the given clock.
    pub fn new(clock: Clock) -> Self {
        MirrorDirectory {
            clock,
            entries: Mutex::new(BTreeMap::new()),
            rotation: AtomicU64::new(0),
        }
    }

    /// Registers (or refreshes) a mirror from an announce. Announcing an
    /// already-known location updates its zone and clears *silence*
    /// quarantine — duplicates never create a second entry. The
    /// corruption strike ledger (and a demotion) is sticky: a byzantine
    /// mirror cannot launder its record by re-announcing. Returns `true`
    /// when the location was new.
    pub fn announce(&self, location: &str, zone: Option<String>, pinned: bool) -> bool {
        let now = self.clock.now_ms();
        let mut entries = self.entries.lock();
        match entries.get_mut(location) {
            Some(e) => {
                e.zone = zone;
                e.last_seen_ms = now;
                e.pinned = e.pinned || pinned;
                // Silence heals; strikes and demotion deliberately do
                // not — only the ledger's own thresholds govern them.
                e.health = MirrorHealth::Healthy;
                false
            }
            None => {
                entries.insert(
                    location.to_string(),
                    MirrorEntry {
                        location: location.to_string(),
                        zone,
                        last_seen_ms: now,
                        chunk_count: 0,
                        coverage: BTreeSet::new(),
                        served_bytes: 0,
                        load: 0,
                        pinned,
                        health: MirrorHealth::Healthy,
                        strikes: 0,
                        complainants: BTreeSet::new(),
                        demoted: false,
                    },
                );
                true
            }
        }
    }

    /// Records a `MIRROR_COMPLAINT` from `reporter` (the complaining
    /// client's host) against `location`. The mirror is demoted — struck
    /// from every future plan, immune to re-announce — once it has
    /// accumulated at least two strikes (`DEMOTE_STRIKES`) from at least
    /// two *distinct* reporters (`DEMOTE_REPORTERS`). Complaints against
    /// locations the directory has never seen are ignored (a client
    /// cannot pre-poison a mirror that has not announced).
    pub fn complaint(&self, location: &str, reporter: &str) -> ComplaintOutcome {
        let mut entries = self.entries.lock();
        let Some(e) = entries.get_mut(location) else {
            return ComplaintOutcome::Unknown;
        };
        e.strikes = e.strikes.saturating_add(1);
        e.complainants.insert(reporter.to_string());
        if !e.demoted && e.strikes >= DEMOTE_STRIKES && e.complainants.len() >= DEMOTE_REPORTERS {
            e.demoted = true;
            ComplaintOutcome::Demoted
        } else {
            ComplaintOutcome::Recorded
        }
    }

    /// Applies a heartbeat. Returns `false` for unknown locations (the
    /// mirror was evicted or never announced; it should re-announce).
    pub fn heartbeat(
        &self,
        location: &str,
        chunk_count: u64,
        served_bytes: u64,
        load: u32,
        coverage: &[u64],
    ) -> bool {
        let now = self.clock.now_ms();
        let mut entries = self.entries.lock();
        match entries.get_mut(location) {
            Some(e) => {
                e.last_seen_ms = now;
                e.chunk_count = chunk_count;
                e.coverage = coverage.iter().copied().collect();
                e.served_bytes = served_bytes;
                e.load = load;
                e.health = MirrorHealth::Healthy;
                true
            }
            None => false,
        }
    }

    /// Reclassifies every entry against the current clock and evicts
    /// mirrors silent past the eviction threshold. Runs implicitly on
    /// every [`candidates`](Self::candidates) call.
    pub fn sweep(&self) {
        let now = self.clock.now_ms();
        let mut entries = self.entries.lock();
        entries.retain(|_, e| {
            if e.pinned {
                return true;
            }
            let silence = now.saturating_sub(e.last_seen_ms);
            e.health = if silence > QUARANTINE_AFTER_MS {
                MirrorHealth::Quarantined
            } else if silence > OVERDUE_AFTER_MS {
                MirrorHealth::Overdue
            } else {
                MirrorHealth::Healthy
            };
            // Demoted entries are retained forever: evicting one would
            // let the offender re-announce with a clean strike ledger.
            e.demoted || silence <= EVICT_AFTER_MS
        });
    }

    /// Ranks the directory for a client in `client_zone` that must fetch
    /// the chunks in `wanted`: healthy before overdue, same-zone before
    /// cross-zone, fewer coverage misses of `wanted` before more (a
    /// mirror already holding the release's chunks serves them without a
    /// read-through storm on the primary), lightly loaded before busy;
    /// ties rotate per call so equal mirrors share traffic. Quarantined
    /// and demoted mirrors are excluded. At most three (`MAX_CANDIDATES`) are
    /// returned.
    ///
    /// Mirrors that never reported coverage (pinned entries, replicas
    /// that have not heartbeated yet) count as missing everything in
    /// `wanted`, which ranks them after a replica with known coverage
    /// but ahead of nothing — exactly the read-through behavior they
    /// would exhibit.
    pub fn candidates(&self, client_zone: Option<&str>, wanted: &[u64]) -> Vec<MirrorCandidate> {
        self.sweep();
        let entries = self.entries.lock();
        let mut live: Vec<&MirrorEntry> = entries
            .values()
            .filter(|e| e.health != MirrorHealth::Quarantined && !e.demoted)
            .collect();
        // Deterministic base order, then a per-call rotation so clients
        // with identical rank keys don't all pile onto one mirror.
        live.sort_by(|a, b| a.location.cmp(&b.location));
        let n = live.len();
        if n == 0 {
            return Vec::new();
        }
        let shift = (self.rotation.fetch_add(1, Ordering::Relaxed) as usize) % n;
        live.rotate_left(shift);
        // Cached keys: the coverage-miss count is an O(|wanted|) scan
        // per entry and must not be recomputed per comparison.
        live.sort_by_cached_key(|e| {
            let zone_miss = match (client_zone, e.zone.as_deref()) {
                (Some(c), Some(z)) => c != z,
                // Without zone information on either side, treat the
                // mirror as local rather than penalizing it.
                _ => false,
            };
            let misses = wanted.iter().filter(|d| !e.coverage.contains(d)).count();
            (e.health != MirrorHealth::Healthy, zone_miss, misses, e.load)
        });
        live.into_iter()
            .take(MAX_CANDIDATES)
            .map(|e| MirrorCandidate {
                location: e.location.clone(),
                zone: e.zone.clone(),
                healthy: e.health == MirrorHealth::Healthy,
            })
            .collect()
    }

    /// Number of registered (non-evicted) mirrors.
    pub fn len(&self) -> usize {
        self.sweep();
        self.entries.lock().len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.sweep();
        self.entries.lock().is_empty()
    }

    /// Snapshot of one entry.
    pub fn entry(&self, location: &str) -> Option<MirrorEntry> {
        self.sweep();
        self.entries.lock().get(location).cloned()
    }

    /// Snapshot of every entry, sorted by location.
    pub fn snapshot(&self) -> Vec<MirrorEntry> {
        self.sweep();
        self.entries.lock().values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn directory() -> (MirrorDirectory, Clock) {
        let clock = Clock::simulated();
        let dir = MirrorDirectory::new(clock.clone());
        (dir, clock)
    }

    #[test]
    fn announce_dedupes_by_location() {
        let (dir, _c) = directory();
        assert!(dir.announce("m1:1071", Some("east".into()), false));
        assert!(!dir.announce("m1:1071", Some("west".into()), false));
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.entry("m1:1071").unwrap().zone.as_deref(), Some("west"));
    }

    #[test]
    fn heartbeat_refreshes_and_unknown_mirrors_are_told_to_reannounce() {
        let (dir, clock) = directory();
        dir.announce("m1:1071", None, false);
        clock.advance_ms(4_000);
        assert!(dir.heartbeat("m1:1071", 42, 1000, 3, &[0xa, 0xb]));
        let e = dir.entry("m1:1071").unwrap();
        assert_eq!(e.chunk_count, 42);
        assert_eq!(e.load, 3);
        assert_eq!(e.last_seen_ms, 4_000);
        assert!(e.coverage.contains(&0xa) && e.coverage.contains(&0xb));
        assert!(!dir.heartbeat("ghost:1071", 0, 0, 0, &[]));
    }

    #[test]
    fn silence_quarantines_then_evicts() {
        let (dir, clock) = directory();
        dir.announce("m1:1071", None, false);
        clock.advance_ms(11_000); // two missed beats
        assert_eq!(dir.entry("m1:1071").unwrap().health, MirrorHealth::Overdue);
        clock.advance_ms(5_000); // past quarantine_after
        assert_eq!(
            dir.entry("m1:1071").unwrap().health,
            MirrorHealth::Quarantined
        );
        assert!(dir.candidates(None, &[]).is_empty());
        // A heartbeat resurrects it.
        assert!(dir.heartbeat("m1:1071", 1, 1, 0, &[]));
        assert_eq!(dir.entry("m1:1071").unwrap().health, MirrorHealth::Healthy);
        // Long silence evicts.
        clock.advance_ms(200_000);
        assert!(dir.entry("m1:1071").is_none());
        assert_eq!(dir.len(), 0);
    }

    #[test]
    fn pinned_mirrors_survive_any_silence() {
        let (dir, clock) = directory();
        dir.announce("pinned:1071", None, true);
        clock.advance_ms(10_000_000);
        let c = dir.candidates(None, &[]);
        assert_eq!(c.len(), 1);
        assert!(c[0].healthy);
    }

    #[test]
    fn ranking_prefers_healthy_then_same_zone_then_light_load() {
        let (dir, clock) = directory();
        dir.announce("busy-east:1071", Some("east".into()), false);
        dir.announce("idle-east:1071", Some("east".into()), false);
        dir.announce("idle-west:1071", Some("west".into()), false);
        dir.announce("stale-east:1071", Some("east".into()), false);
        clock.advance_ms(12_000); // everyone overdue now...
        dir.heartbeat("busy-east:1071", 10, 10, 50, &[]);
        dir.heartbeat("idle-east:1071", 10, 10, 1, &[]);
        dir.heartbeat("idle-west:1071", 10, 10, 0, &[]);
        // ...except stale-east, which stays overdue (not yet quarantined).
        let c = dir.candidates(Some("east"), &[]);
        assert_eq!(c.len(), 3, "MAX_CANDIDATES caps the plan");
        assert_eq!(c[0].location, "idle-east:1071");
        assert_eq!(c[1].location, "busy-east:1071");
        assert_eq!(c[2].location, "idle-west:1071");
        assert!(c.iter().all(|m| m.healthy));

        // A west client ranks its own zone first.
        let c = dir.candidates(Some("west"), &[]);
        assert_eq!(c[0].location, "idle-west:1071");
    }

    #[test]
    fn coverage_of_the_wanted_chunks_outranks_load() {
        let (dir, _c) = directory();
        dir.announce("cold:1071", None, false);
        dir.announce("warm:1071", None, false);
        // The warm mirror holds the new release's chunks but is busier;
        // the cold one is idle but would read through for everything.
        dir.heartbeat("cold:1071", 0, 0, 0, &[]);
        dir.heartbeat("warm:1071", 3, 0, 40, &[0x1, 0x2, 0x3]);
        let c = dir.candidates(None, &[0x1, 0x2]);
        assert_eq!(c[0].location, "warm:1071");
        // With no wanted chunks (full-coverage request), load decides
        // again.
        let c = dir.candidates(None, &[]);
        assert_eq!(c[0].location, "cold:1071");
        // Partial coverage still beats none.
        dir.heartbeat("cold:1071", 1, 0, 0, &[0x1]);
        let c = dir.candidates(None, &[0x1, 0x2, 0x3]);
        assert_eq!(c[0].location, "warm:1071", "2 misses lose to 0 misses");
    }

    #[test]
    fn zone_locality_still_outranks_coverage() {
        let (dir, _c) = directory();
        dir.announce("near:1071", Some("east".into()), false);
        dir.announce("far-warm:1071", Some("west".into()), false);
        dir.heartbeat("near:1071", 0, 0, 0, &[]);
        dir.heartbeat("far-warm:1071", 2, 0, 0, &[0x1, 0x2]);
        let c = dir.candidates(Some("east"), &[0x1, 0x2]);
        assert_eq!(
            c[0].location, "near:1071",
            "read-through in-zone beats a warm cross-zone trip"
        );
    }

    #[test]
    fn equal_candidates_rotate_across_calls() {
        let (dir, _c) = directory();
        dir.announce("m1:1071", None, false);
        dir.announce("m2:1071", None, false);
        let first: Vec<String> = (0..2)
            .map(|_| dir.candidates(None, &[])[0].location.clone())
            .collect();
        assert_ne!(first[0], first[1], "rotation must spread equal mirrors");
    }

    #[test]
    fn corroborated_complaints_demote_and_drop_from_plans() {
        let (dir, _c) = directory();
        dir.announce("evil:1071", None, false);
        dir.announce("honest:1071", None, false);
        // One reporter, even striking twice, is not corroboration.
        assert_eq!(
            dir.complaint("evil:1071", "app1"),
            ComplaintOutcome::Recorded
        );
        assert_eq!(
            dir.complaint("evil:1071", "app1"),
            ComplaintOutcome::Recorded
        );
        assert!(!dir.entry("evil:1071").unwrap().demoted);
        assert_eq!(dir.candidates(None, &[]).len(), 2);
        // A second distinct reporter crosses both thresholds.
        assert_eq!(
            dir.complaint("evil:1071", "app2"),
            ComplaintOutcome::Demoted
        );
        let e = dir.entry("evil:1071").unwrap();
        assert!(e.demoted);
        assert_eq!(e.strikes, 3);
        let c = dir.candidates(None, &[]);
        assert_eq!(c.len(), 1, "demoted mirror leaves the plan");
        assert_eq!(c[0].location, "honest:1071");
        // Further strikes just accumulate.
        assert_eq!(
            dir.complaint("evil:1071", "app3"),
            ComplaintOutcome::Recorded
        );
        // Unseen locations cannot be pre-poisoned.
        assert_eq!(
            dir.complaint("ghost:1071", "app1"),
            ComplaintOutcome::Unknown
        );
    }

    #[test]
    fn strikes_and_demotion_are_sticky_across_reannounce() {
        // Regression: a byzantine mirror must not launder its strike
        // ledger (or escape demotion) by re-announcing — announce only
        // ever heals *silence* quarantine.
        let (dir, _c) = directory();
        dir.announce("evil:1071", Some("east".into()), false);
        dir.complaint("evil:1071", "app1");
        assert!(!dir.announce("evil:1071", Some("east".into()), false));
        assert_eq!(
            dir.entry("evil:1071").unwrap().strikes,
            1,
            "strike survived"
        );
        dir.complaint("evil:1071", "app2");
        assert!(dir.entry("evil:1071").unwrap().demoted);
        assert!(!dir.announce("evil:1071", Some("west".into()), false));
        let e = dir.entry("evil:1071").unwrap();
        assert!(e.demoted, "demotion survives re-announce");
        assert!(dir.candidates(Some("west"), &[]).is_empty());
        // Heartbeats don't launder it either.
        assert!(dir.heartbeat("evil:1071", 9, 9, 0, &[]));
        assert!(dir.entry("evil:1071").unwrap().demoted);
    }

    #[test]
    fn demoted_entries_survive_eviction_sweeps() {
        // Eviction would let the offender re-announce as a brand-new
        // entry with a clean ledger; demoted entries are retained.
        let (dir, clock) = directory();
        dir.announce("evil:1071", None, false);
        dir.complaint("evil:1071", "app1");
        dir.complaint("evil:1071", "app2");
        assert!(dir.entry("evil:1071").unwrap().demoted);
        clock.advance_ms(1_000_000); // far past evict_after
        dir.sweep();
        let e = dir.entry("evil:1071").expect("retained");
        assert!(e.demoted);
        assert_eq!(e.strikes, 2);
        // And re-announcing still lands on the demoted entry.
        assert!(!dir.announce("evil:1071", None, false));
        assert!(dir.entry("evil:1071").unwrap().demoted);
    }
}
