//! Fleet-side renewal aggregation: instead of every client renewing its
//! lease with its own request (one frame per client per beat — the
//! per-request loop that dominated the 10k-client rollout bench), a
//! per-zone aggregator collects the renewals due in the same scheduler
//! tick and sends the server one `RENEW_BATCH` frame. The server answers
//! with one `OFFER_BATCH`, and each reply is applied to its contributing
//! bootloader exactly as an individually exchanged renewal would have
//! been. Entries carry each client's own host, so license seats, rollout
//! wave targeting, and lease logging still attribute to the client, not
//! the aggregator. The activation reports of the clients a tick upgraded
//! travel the same way, as one `ACTIVATION_BATCH` before the tick returns;
//! a batch no server answered goes out again with the next tick's.

use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;

use netsim::{Addr, NetError, Network, TaskControl, TaskHandle};

use drivolution_bootloader::Bootloader;
use drivolution_core::proto::{Activation, DrvMsg};

/// How many of the latest distinct requests or reports a tick holds a
/// new one against before it keeps its own copy: enough for the few a
/// wave repeats, few enough that a tick of distinct values stays linear.
const RECENT: usize = 8;

/// An activation report, and the client it speaks for.
type Report = (Arc<Bootloader>, Arc<Activation>);

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
    /// Each client with its next renewal deadline in virtual ms, as its
    /// bootloader last reported it ([`Bootloader::on_renewal_due`]; 0:
    /// ask on the next tick). A client's place in the list is fixed: its
    /// report names it. A dropped client stays as a dead entry due never.
    clients: Vec<(Weak<Bootloader>, u64)>,
    /// Activation reports whose batch no server answered, oldest first:
    /// they lead the next tick's batch.
    unsent: Vec<Report>,
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
    /// retires itself once the aggregator is dropped. Each client reports
    /// its renewal deadlines to the aggregator from then on.
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
                clients: clients.iter().map(|c| (Arc::downgrade(c), 0)).collect(),
                ..AggregatorState::default()
            }),
        });
        for (slot, client) in clients.iter().enumerate() {
            let me = Arc::downgrade(&agg);
            client.on_renewal_due(move |at_ms| {
                let Some(agg) = me.upgrade() else { return };
                let mut st = agg.state.lock();
                if let Some((_, due)) = st.clients.get_mut(slot) {
                    *due = at_ms;
                }
            });
        }
        let handle = net.scheduler().owned(
            &agg,
            Some(every),
            format!("renew-aggregator:{}", local.host()),
            |agg| {
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

    /// The live clients whose renewal deadline has passed, in list order.
    /// They leave the lock to be asked; a dropped client's entry is
    /// cleared on the way.
    fn due_clients(&self) -> Vec<Arc<Bootloader>> {
        let now = self.net.clock().now_ms();
        let mut st = self.state.lock();
        let mut due = Vec::new();
        for (client, at) in st.clients.iter_mut().filter(|(_, at)| *at <= now) {
            match client.upgrade() {
                Some(live) => due.push(live),
                None => (*client, *at) = (Weak::new(), u64::MAX),
            }
        }
        due
    }

    /// One coalescing pass: asks every live client whose renewal deadline
    /// has passed for its due renewal, sends the collected entries as a
    /// single `RENEW_BATCH`, and applies the server's `OFFER_BATCH`
    /// replies back to the contributors in order. The activation reports
    /// of the contributors it upgraded go out as one `ACTIVATION_BATCH`,
    /// behind any an earlier tick could not deliver. Equal requests, and
    /// equal reports, share one value. Returns the number of renewals
    /// carried.
    pub fn tick(&self) -> usize {
        let (n, reports) = self.renew_due();
        self.send_reports(reports);
        n
    }

    /// The renewal half of [`tick`](Self::tick): the renewals carried,
    /// and the reports of the contributors it upgraded.
    fn renew_due(&self) -> (usize, Vec<Report>) {
        let mut contributors: Vec<Arc<Bootloader>> = Vec::new();
        let mut entries = Vec::new();
        let mut requests = Vec::new();
        for client in self.due_clients() {
            if let Some((host, req)) = client.batch_renewal_entry() {
                let req = shared(&mut requests, req);
                client.share_renewal_request(&req);
                entries.push((host, req));
                contributors.push(client);
            }
        }
        if entries.is_empty() {
            return (0, Vec::new());
        }
        let n = entries.len();
        {
            let stats = &mut self.state.lock().stats;
            stats.batch_frames += 1;
            stats.coalesced_renewals += n as u64;
        }
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
                return (n, Vec::new());
            }
        };
        let mut reports = Vec::new();
        let mut distinct = Vec::new();
        for (client, reply) in contributors.into_iter().zip(replies) {
            if let (_, Some(report)) = client.apply_batch_offer(&self.server, &reply) {
                reports.push((client, shared(&mut distinct, Arc::new(report))));
            }
        }
        (n, reports)
    }

    /// Sends the reports no earlier batch delivered, then `reports`,
    /// each under its client's host, as one `ACTIVATION_BATCH`. A server
    /// from before the frame refuses it as undecodable; each client then
    /// sends its report alone, so the rollout gates still hear from
    /// every host. A batch no server answered waits for the next tick: a
    /// rollout counts a host only by its report.
    fn send_reports(&self, mut reports: Vec<Report>) {
        let unsent = std::mem::take(&mut self.state.lock().unsent);
        if !unsent.is_empty() {
            reports.splice(..0, unsent);
        }
        if reports.is_empty() {
            return;
        }
        let entries = (reports.iter())
            .map(|(client, report)| (client.local_addr().host().to_string(), Arc::clone(report)))
            .collect();
        let frame = DrvMsg::ActivationBatch { entries }.encode();
        match self.net.request(&self.local, &self.server, frame) {
            Ok(_) => {}
            Err(NetError::Protocol(_)) => {
                for (client, report) in reports {
                    client.send_activation_report(Arc::unwrap_or_clone(report));
                }
            }
            Err(_) => self.state.lock().unsent = reports,
        }
    }
}

/// `value`, or the `Arc` of an equal value among the last [`RECENT`]
/// distinct ones in `recent` (newest last), which `value` joins when it
/// is new.
fn shared<T: PartialEq>(recent: &mut Vec<Arc<T>>, value: Arc<T>) -> Arc<T> {
    if let Some(same) = (recent.iter().rev()).find(|r| Arc::ptr_eq(r, &value) || **r == value) {
        return Arc::clone(same);
    }
    if recent.len() >= RECENT {
        recent.remove(0);
    }
    recent.push(Arc::clone(&value));
    value
}

#[cfg(test)]
mod tests {
    use driverkit::ConnectProps;

    use super::*;
    use crate::sim::{FleetSim, SimSpec};

    const MINUTE: u64 = 60_000;

    /// A bootstrapped batched fleet of four clients on ten-minute leases
    /// (renew-due after nine), and its one aggregator.
    fn fleet(notify: bool) -> (FleetSim, Arc<RenewalAggregator>) {
        let sim = FleetSim::from_spec(SimSpec {
            batched: true,
            notify,
            ..SimSpec::new(4, 10 * MINUTE)
        });
        sim.bootstrap_all();
        let agg = sim.aggregators()[0].clone();
        (sim, agg)
    }

    fn renewals(sim: &FleetSim) -> u64 {
        sim.clients().iter().map(|c| c.stats().renewals).sum()
    }

    #[test]
    fn an_equal_value_shares_one_of_the_last_distinct_ones() {
        let mut recent = Vec::new();
        let first = shared(&mut recent, Arc::new(0));
        assert!(Arc::ptr_eq(&first, &shared(&mut recent, Arc::new(0))));
        for i in 1..=RECENT {
            shared(&mut recent, Arc::new(i));
        }
        // `RECENT` distinct values later, 0 is no longer held.
        assert_eq!(recent.len(), RECENT);
        assert!(!Arc::ptr_eq(&first, &shared(&mut recent, Arc::new(0))));
    }

    #[test]
    fn a_pushed_notice_renews_on_the_next_tick() {
        let (sim, agg) = fleet(true);
        sim.server().notify_upgrade("fleetdb");
        assert_eq!(agg.tick(), 4);
        assert_eq!(renewals(&sim), 4, "a notice waited for its lease");
    }

    #[test]
    fn a_renewal_owed_after_a_failed_batch_goes_out_on_the_next_tick() {
        let (sim, agg) = fleet(true);
        sim.net().with_faults(|f| f.take_down("db1"));
        sim.server().notify_upgrade("fleetdb");
        assert_eq!(agg.tick(), 4);
        assert_eq!(agg.stats().failed_batches, 1);
        // The failed batch consumed the notices; with the channels gone,
        // only the owed renewal is left to force one before the lease.
        sim.clients().iter().for_each(|c| c.drop_notify_channel());
        sim.net().with_faults(|f| f.restore("db1"));
        assert_eq!(agg.tick(), 4);
        assert_eq!(renewals(&sim), 4, "an owed renewal waited for its lease");
    }

    #[test]
    fn a_client_that_renewed_by_itself_is_not_asked_before_its_new_deadline() {
        let (sim, agg) = fleet(false);
        let clock = sim.net().clock();
        clock.advance_ms(9 * MINUTE);
        let own = sim.clients()[0].clone();
        let props = ConnectProps::user("admin", "admin");
        drop(own.connect(sim.url(), &props).unwrap());
        assert_eq!(own.stats().renewals, 1);
        let asked = |agg: &RenewalAggregator| agg.due_clients().len();
        let own_asked = agg.due_clients().iter().any(|c| Arc::ptr_eq(c, &own));
        assert!(!own_asked, "asked again right after its own renewal");
        assert_eq!(asked(&agg), 3);
        assert_eq!(agg.tick(), 3);
        assert_eq!(own.stats().renewals, 1);
        // All four now hold leases granted at this instant.
        clock.advance_ms(9 * MINUTE - 1);
        assert_eq!(asked(&agg), 0, "asked before the new deadline");
        clock.advance_ms(1);
        assert_eq!(asked(&agg), 4);
    }
}
