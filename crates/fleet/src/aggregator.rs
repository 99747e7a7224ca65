//! Fleet-side renewal aggregation: instead of every client renewing its
//! lease with its own request (one frame per client per beat — the
//! per-request loop that dominated the 10k-client rollout bench), a
//! per-zone aggregator collects the renewals due in the same scheduler
//! tick and sends the server one `RENEW_BATCH` frame. The server answers
//! with one `OFFER_BATCH`, and each reply is applied to its contributing
//! bootloader exactly as an individually exchanged renewal would have
//! been. Entries carry each client's own host, so license seats, rollout
//! wave targeting, and lease logging still attribute to the client, not
//! the aggregator.

use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;

use netsim::{Addr, Network, TaskControl, TaskHandle};

use drivolution_bootloader::Bootloader;
use drivolution_core::proto::DrvMsg;

/// Counters exposed for the batching benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AggregatorStats {
    /// `RENEW_BATCH` frames sent (ticks with at least one due renewal).
    pub batch_frames: u64,
    /// Renewal entries coalesced into those frames.
    pub coalesced_renewals: u64,
    /// Batch exchanges that failed at the network level or came back
    /// malformed (each contributor counts a failed renewal and keeps its
    /// driver).
    pub failed_batches: u64,
}

/// Coalesces same-tick lease renewals from a set of bootloaders into one
/// `RENEW_BATCH` frame against one server. Build one per zone with
/// [`RenewalAggregator::launch`]; clients under an aggregator run
/// [`drivolution_bootloader::LifecyclePolicy::manual`] so the aggregator
/// tick is their only renewal driver.
pub struct RenewalAggregator {
    net: Network,
    local: Addr,
    server: Addr,
    state: Mutex<AggregatorState>,
}

#[derive(Default)]
struct AggregatorState {
    clients: Vec<Weak<Bootloader>>,
    stats: AggregatorStats,
    task: Option<TaskHandle>,
}

impl std::fmt::Debug for RenewalAggregator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RenewalAggregator")
            .field("local", &self.local)
            .field("server", &self.server)
            .finish()
    }
}

impl RenewalAggregator {
    /// Creates an aggregator speaking from `local` to the Drivolution
    /// server at `server` and registers its tick on the network's
    /// scheduler at `every`. The task holds only a weak reference and
    /// retires itself once the aggregator is dropped.
    pub fn launch(
        net: &Network,
        local: Addr,
        server: Addr,
        clients: &[Arc<Bootloader>],
        every: Duration,
    ) -> Arc<Self> {
        let agg = Arc::new(RenewalAggregator {
            net: net.clone(),
            local: local.clone(),
            server,
            state: Mutex::new(AggregatorState {
                clients: clients.iter().map(Arc::downgrade).collect(),
                ..AggregatorState::default()
            }),
        });
        let me = Arc::downgrade(&agg);
        let handle = net.scheduler().every(
            every,
            Duration::ZERO,
            format!("renew-aggregator:{}", local.host()),
            move || {
                let Some(agg) = me.upgrade() else {
                    return Ok(TaskControl::Done);
                };
                agg.tick();
                Ok(TaskControl::Continue)
            },
        );
        agg.state.lock().task = Some(handle);
        agg
    }

    /// Snapshot of the aggregator's counters.
    pub fn stats(&self) -> AggregatorStats {
        self.state.lock().stats
    }

    /// The aggregator's scheduler task, for cadence introspection.
    pub fn task(&self) -> Option<TaskHandle> {
        self.state.lock().task.clone()
    }

    /// One coalescing pass: asks every live client for its due renewal,
    /// sends the collected entries as a single `RENEW_BATCH`, and applies
    /// the server's `OFFER_BATCH` replies back to the contributors in
    /// order. Returns the number of renewals carried.
    pub fn tick(&self) -> usize {
        // The client list leaves the lock while each bootloader is asked.
        let mut clients = std::mem::take(&mut self.state.lock().clients);
        let mut contributors: Vec<Arc<Bootloader>> = Vec::new();
        let mut entries = Vec::new();
        clients.retain(|w| {
            let Some(c) = w.upgrade() else { return false };
            if let Some(entry) = c.batch_renewal_entry() {
                entries.push(entry);
                contributors.push(c);
            }
            true
        });
        let mut st = self.state.lock();
        st.clients = clients;
        if entries.is_empty() {
            return 0;
        }
        let n = entries.len();
        st.stats.batch_frames += 1;
        st.stats.coalesced_renewals += n as u64;
        drop(st);
        let frame = DrvMsg::RenewBatch { entries }.encode();
        let reply = self.net.request(&self.local, &self.server, frame);
        let replies = match reply.map(DrvMsg::decode) {
            Ok(Ok(DrvMsg::OfferBatch { replies })) if replies.len() == n => replies,
            _ => {
                // A network failure or a malformed answer: every
                // contributor takes it as an individually failed renewal.
                self.state.lock().stats.failed_batches += 1;
                for client in &contributors {
                    client.apply_batch_failure();
                }
                return n;
            }
        };
        for (client, reply) in contributors.iter().zip(replies) {
            client.apply_batch_offer(&self.server, reply);
        }
        n
    }
}
