//! The system's promises, each stated once: [`check`] holds a
//! [`FinishedRun`] (what one run of a world left behind) to all ten.
//! `tests/search.rs` draws worlds and asks it of each; the scenario
//! tests in `chaos`, `rollout`, `policy_matrix` and `mirror_failover`
//! ask it instead of restating a promise in their own asserts.
//!
//! A part of a run that a world does not exercise stays at its default
//! (empty, `None` or zero), and the promise about it holds vacuously.
#![allow(dead_code)] // each test binary fills the parts its worlds exercise

use std::fmt;

use bytes::Bytes;

use drivolution::bootloader::{BootStats, Bootloader};
use drivolution::core::proto::{DrvMsg, RequestKind};
use drivolution::core::DriverVersion;

/// One client bootloader as a run left it.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ClientEnd {
    /// The client's address.
    pub(crate) name: String,
    /// The version it runs, if any.
    pub(crate) version: Option<DriverVersion>,
    /// The digest of the image it runs.
    pub(crate) digest: Option<u64>,
    /// Its counters.
    pub(crate) stats: BootStats,
}

impl ClientEnd {
    /// `boot` as it stands, named by its address.
    pub(crate) fn of(boot: &Bootloader) -> Self {
        ClientEnd {
            name: boot.local_addr().to_string(),
            version: boot.active_version(),
            digest: boot.active_image_digest(),
            stats: boot.stats(),
        }
    }
}

/// An application transaction the run asked to commit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Commit {
    /// What the transaction did, for the report.
    pub(crate) what: String,
    /// Whether its `COMMIT` returned success.
    pub(crate) committed: bool,
    /// Whether its write was visible afterwards.
    pub(crate) visible: bool,
}

/// What a finished run left behind: the clients, the published target
/// and everything each promise needs to be judged.
#[derive(Clone, Debug, Default)]
pub(crate) struct FinishedRun {
    /// Every client at the end of the run.
    pub(crate) clients: Vec<ClientEnd>,
    /// The version every client must end on, and the digest of the image
    /// published for it (`None`: the digest every such client agrees on).
    pub(crate) target: Option<(DriverVersion, Option<u64>)>,
    /// The virtual instant by which every client must be on the target
    /// (a notice reached each one), and the instant the last one got
    /// there (`None`: some never did).
    pub(crate) notified: Option<(u64, Option<u64>)>,
    /// Per sampled instant, per licensed driver: seats held and the
    /// limit.
    pub(crate) seats: Vec<(u64, usize, usize)>,
    /// Transactions the application asked to commit on an
    /// `AfterCommit` driver.
    pub(crate) commits: Vec<Commit>,
    /// Transactions the bootloaders' swap windows severed under an
    /// `AfterCommit` driver.
    pub(crate) severed: u64,
    /// Writes of sessions closed or severed before their commit: what,
    /// and whether the write was visible afterwards.
    pub(crate) abandoned: Vec<(String, bool)>,
    /// The version a halted rollout rolled the fleet back to.
    pub(crate) rolled_back_to: Option<DriverVersion>,
    /// Activation reports of the target the rollout counted, and the
    /// clients that activated it.
    pub(crate) reports: Option<(usize, usize)>,
    /// Every frame the primary received or answered, as it travelled.
    pub(crate) frames: Vec<Bytes>,
    /// One frame of the run under window mutation ([`for_each_mutant`]):
    /// each mutant is a typed error or a value that re-encodes to the
    /// mutant's own bytes.
    pub(crate) mutated: Option<Bytes>,
    /// Renewals sent to the primary in full, and its `RESEND_IN_FULL`
    /// answers, when it refused no frame tag and kept every request.
    pub(crate) by_reference: Option<(u64, u64)>,
    /// The run's state digest and the digest a replay of the same seed
    /// reached.
    pub(crate) replay: Option<(u64, u64)>,
    /// Each pump of a run whose links have no latency: the instant asked
    /// for and the instant the clock showed after it. (A request advances
    /// the clock by its round trip, so over links with latency a request
    /// begun before the instant ends after it.)
    pub(crate) pumps: Vec<(u64, u64)>,
}

/// A broken promise: which one, and what the run did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Violation {
    /// The promise, as [`PROMISES`] names it.
    pub(crate) promise: &'static str,
    /// What the run did instead.
    pub(crate) detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.promise, self.detail)
    }
}

type Promise = fn(&FinishedRun) -> Result<(), String>;

/// The ten promises, in the order [`check`] asks them.
pub(crate) const PROMISES: [(&str, Promise); 10] = [
    (
        "every upgrade converges on the published bytes",
        published_bytes,
    ),
    ("a notified client renews on its next tick", notified_renews),
    ("seats are never oversubscribed", seats),
    ("AfterCommit never severs a transaction", after_commit),
    (
        "a closed or severed session leaves no uncommitted write",
        abandoned,
    ),
    (
        "a rollback strands nobody and re-downloads nothing",
        rollback,
    ),
    ("every activation report is counted once", reports),
    ("every frame the run encoded decodes to itself", frames),
    (
        "a renewal by reference stands for the full request",
        by_reference,
    ),
    (
        "the same seed gives the same state, and a pump to t ends at t",
        replay,
    ),
];

/// Holds `run` to every promise; the first broken one, in [`PROMISES`]
/// order.
///
/// # Errors
///
/// The [`Violation`] of the first promise the run broke.
pub(crate) fn check(run: &FinishedRun) -> Result<(), Violation> {
    for (promise, holds) in PROMISES {
        holds(run).map_err(|detail| Violation { promise, detail })?;
    }
    Ok(())
}

fn published_bytes(run: &FinishedRun) -> Result<(), String> {
    let Some((version, digest)) = run.target else {
        return Ok(());
    };
    let mut agreed = digest;
    for c in &run.clients {
        if c.version != Some(version) {
            return Err(format!("{} runs {:?}, not {version}", c.name, c.version));
        }
        match (agreed, c.digest) {
            (Some(want), got) if got != Some(want) => {
                return Err(format!("{} holds image {got:x?}, not {want:x}", c.name))
            }
            _ => agreed = agreed.or(c.digest),
        }
    }
    Ok(())
}

fn notified_renews(run: &FinishedRun) -> Result<(), String> {
    match run.notified {
        Some((by, Some(at))) if at > by => Err(format!(
            "the fleet reached the target at {at} ms, due by {by} ms"
        )),
        Some((by, None)) => Err(format!(
            "the fleet never reached the target, due by {by} ms"
        )),
        _ => Ok(()),
    }
}

fn seats(run: &FinishedRun) -> Result<(), String> {
    match run.seats.iter().find(|(_, held, limit)| held > limit) {
        Some((at, held, limit)) => Err(format!("{held} seats of {limit} held at {at} ms")),
        None => Ok(()),
    }
}

fn after_commit(run: &FinishedRun) -> Result<(), String> {
    if run.severed > 0 {
        return Err(format!("{} transactions severed", run.severed));
    }
    match run.commits.iter().find(|c| !(c.committed && c.visible)) {
        Some(c) => Err(format!("{c:?}")),
        None => Ok(()),
    }
}

fn abandoned(run: &FinishedRun) -> Result<(), String> {
    match run.abandoned.iter().find(|(_, visible)| *visible) {
        Some((what, _)) => Err(format!("{what}: the write outlived its session")),
        None => Ok(()),
    }
}

fn rollback(run: &FinishedRun) -> Result<(), String> {
    let Some(prior) = run.rolled_back_to else {
        return Ok(());
    };
    for c in &run.clients {
        if c.version != Some(prior) {
            return Err(format!("{} stranded on {:?}", c.name, c.version));
        }
        // One paid transfer per version ever activated (the bootstrap
        // and at most one upgrade); every return comes from the depot.
        let fetched = c.stats.downloads + c.stats.delta_downloads;
        if c.stats.revalidations + 1 != fetched {
            return Err(format!(
                "{}: {fetched} transfers, {} revalidations",
                c.name, c.stats.revalidations
            ));
        }
    }
    Ok(())
}

fn reports(run: &FinishedRun) -> Result<(), String> {
    match run.reports {
        Some((counted, activated)) if counted != activated => Err(format!(
            "{counted} activations counted, {activated} clients activated"
        )),
        _ => Ok(()),
    }
}

fn frames(run: &FinishedRun) -> Result<(), String> {
    for frame in &run.frames {
        let again = DrvMsg::decode(frame.clone())
            .map_err(|e| format!("a frame of tag {:?} does not decode: {e}", frame.first()))?
            .encode();
        if again != *frame {
            return Err(format!(
                "a frame of tag {:?} re-encodes otherwise",
                frame.first()
            ));
        }
    }
    let mut broken = None;
    if let Some(frame) = &run.mutated {
        for_each_mutant(frame, |what, mutant| {
            if let (None, Ok(value)) = (&broken, DrvMsg::decode(mutant.clone())) {
                if value.encode() != mutant {
                    broken = Some(format!(
                        "tag {:?} {what} decodes to {value:?}, which re-encodes to other bytes",
                        frame.first()
                    ));
                }
            }
        });
    }
    broken.map_or(Ok(()), Err)
}

/// A server that kept a client's request grants a renewal by reference
/// (or a `FETCH`) what the full request would draw — that the grant is
/// right is the convergence promise's to judge — so, when it refused no
/// tag and lost nothing, no renewal travels in full and none is asked
/// again.
fn by_reference(run: &FinishedRun) -> Result<(), String> {
    match run.by_reference {
        Some((full, resends)) if full + resends > 0 => Err(format!(
            "{full} renewals in full and {resends} resends asked of a server that kept every request"
        )),
        _ => Ok(()),
    }
}

fn replay(run: &FinishedRun) -> Result<(), String> {
    if let Some((first, again)) = run.replay.filter(|(a, b)| a != b) {
        return Err(format!("state {first:x}, replayed {again:x}"));
    }
    match run.pumps.iter().find(|(asked, ended)| asked != ended) {
        Some((asked, ended)) => Err(format!("a pump to {asked} ms ended at {ended} ms")),
        None => Ok(()),
    }
}

/// Whether `frame` is a renewal sent in full.
pub(crate) fn is_full_renewal(frame: &Bytes) -> bool {
    matches!(
        DrvMsg::decode(frame.clone()),
        Ok(DrvMsg::Request(req)) if matches!(req.kind, RequestKind::Renewal { .. })
    )
}

/// Calls `each` with every window mutant of `frame`: at every offset,
/// 1, 2, 4 and 8 bytes set to `0xFF` and to `0x00` (where they differ
/// from the frame's own bytes).
pub(crate) fn for_each_mutant(frame: &Bytes, mut each: impl FnMut(String, Bytes)) {
    for at in 0..frame.len() {
        for width in [1, 2, 4, 8] {
            let Some(window) = frame.get(at..at + width) else {
                continue;
            };
            for fill in [0xFF, 0x00] {
                if window.iter().all(|&b| b == fill) {
                    continue;
                }
                let mut mutant = frame.to_vec();
                mutant[at..at + width].fill(fill);
                each(
                    format!("{fill:#04x} × {width} at {at}"),
                    Bytes::from(mutant),
                );
            }
        }
    }
}
