//! Steady OLTP load over bootloader-managed connections, driven by the
//! network scheduler. This is the measuring instrument of the hot-swap
//! benchmarks: each client holds one long-lived [`ManagedConnection`]
//! and runs [`crate::workload`] transactions on its own cadence, and the
//! ledger classifies every failure the application would have seen —
//! dropped queries, severed transactions, forced reconnects. A fleet
//! upgrading with zero impact shows a clean ledger; a fleet upgrading by
//! closing connections does not.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use netsim::{Network, TaskControl, TaskHandle};

use driverkit::{ConnectProps, Connection, DbUrl, DkResult};
use drivolution_bootloader::{Bootloader, ManagedConnection};

use crate::workload;

/// The application-visible outcome ledger of a steady-load run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Load-task firings (each attempts one unit of work).
    pub attempted: u64,
    /// Transactions committed successfully.
    pub committed: u64,
    /// Work units that failed — the queries the application lost.
    pub dropped_queries: u64,
    /// Failures that cut down a transaction that was already open
    /// (work in flight lost, not just a statement).
    pub severed_transactions: u64,
    /// Connections the application had to re-establish after its
    /// previous one was closed under it.
    pub reconnects: u64,
}

struct ClientSlot {
    client: Arc<Bootloader>,
    conn: Option<ManagedConnection>,
    /// Monotonic per-client work counter (also the order-id seed).
    seq: u64,
    /// True once this client has connected at least once, so later
    /// connects count as reconnects rather than bootstrap.
    ever_connected: bool,
    /// True while a held (multi-firing) transaction is open.
    held_open: bool,
    /// Order id of the held transaction in flight.
    held_id: i64,
    /// Phase of the held transaction (0 = begin+insert, 1 = update,
    /// 2 = select+commit). Advances on success, resets on any failure
    /// or reconnect so a fresh connection always starts at BEGIN.
    held_phase: u8,
}

/// Scheduler-driven steady workload: one task per client, each firing
/// one transaction (or one phase of a held transaction) against the
/// client's long-lived managed connection. Failures are classified, not
/// retried — the ledger is the point.
pub struct SteadyLoad {
    url: DbUrl,
    props: ConnectProps,
    slots: Vec<Mutex<ClientSlot>>,
    state: Mutex<LoadState>,
    /// Every `hold_every`-th client spreads its transaction over three
    /// firings (BEGIN+INSERT, UPDATE, SELECT+COMMIT), so some sessions
    /// are mid-transaction whenever an upgrade lands. `0` disables.
    hold_every: usize,
}

/// The ledger and the per-client load tasks.
#[derive(Default)]
struct LoadState {
    stats: LoadStats,
    tasks: Vec<TaskHandle>,
}

impl std::fmt::Debug for SteadyLoad {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SteadyLoad")
            .field("clients", &self.slots.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl SteadyLoad {
    /// Builds the load driver and registers one `steady-load <host>`
    /// task per client at `every` (zero jitter: deterministic). Call
    /// [`SteadyLoad::open_all`] before pumping the network.
    pub fn launch(
        net: &Network,
        clients: &[Arc<Bootloader>],
        url: &DbUrl,
        every: Duration,
        hold_every: usize,
    ) -> Arc<Self> {
        let load = Arc::new(SteadyLoad {
            url: url.clone(),
            props: ConnectProps::user("admin", "admin"),
            slots: clients
                .iter()
                .map(|c| {
                    Mutex::new(ClientSlot {
                        client: c.clone(),
                        conn: None,
                        seq: 0,
                        ever_connected: false,
                        held_open: false,
                        held_id: 0,
                        held_phase: 0,
                    })
                })
                .collect(),
            state: Mutex::default(),
            hold_every,
        });
        let mut tasks = Vec::with_capacity(clients.len());
        for (i, c) in clients.iter().enumerate() {
            tasks.push(net.scheduler().owned(
                &load,
                Some(every),
                format!("steady-load {}", c.local_addr().host()),
                move |load| {
                    load.tick(i);
                    Ok(TaskControl::Continue)
                },
            ));
        }
        load.state.lock().tasks = tasks;
        load
    }

    /// Opens every client's long-lived connection and creates the
    /// workload table. Bootstrap connects are not counted as
    /// reconnects; a failure here is a setup error, not load signal.
    ///
    /// # Errors
    ///
    /// The first connect or setup failure.
    pub fn open_all(&self) -> DkResult<()> {
        for (i, slot) in self.slots.iter().enumerate() {
            let mut slot = slot.lock();
            let mut conn = slot.client.connect(&self.url, &self.props)?;
            if i == 0 {
                workload::setup(&mut conn)?;
            }
            slot.conn = Some(conn);
            slot.ever_connected = true;
        }
        Ok(())
    }

    /// Snapshot of the outcome ledger.
    pub fn stats(&self) -> LoadStats {
        self.state.lock().stats
    }

    /// Cancels the load tasks (the driver stops firing; connections
    /// stay open until the `SteadyLoad` is dropped).
    pub fn stop(&self) {
        let tasks = std::mem::take(&mut self.state.lock().tasks);
        tasks.iter().for_each(TaskHandle::cancel);
    }

    /// One firing for client `i`: reconnect if the previous connection
    /// was closed under the application, then run one transaction (or
    /// one phase of a held one) and record the outcome.
    fn tick(&self, i: usize) {
        let Some(slot) = self.slots.get(i) else {
            return;
        };
        let mut slot = slot.lock();
        self.state.lock().stats.attempted += 1;
        if slot.conn.is_none() {
            match slot.client.connect(&self.url, &self.props) {
                Ok(c) => {
                    if slot.ever_connected {
                        self.state.lock().stats.reconnects += 1;
                    }
                    slot.conn = Some(c);
                    slot.ever_connected = true;
                    slot.held_open = false;
                    slot.held_phase = 0;
                }
                Err(_) => {
                    // The application wanted to run work and could not
                    // even get a connection: that work is lost.
                    self.state.lock().stats.dropped_queries += 1;
                    return;
                }
            }
        }
        let held_mode = self.hold_every > 0 && i.is_multiple_of(self.hold_every);
        let was_mid_txn = slot.held_open;
        let seq = slot.seq;
        slot.seq += 1;
        let order_id = (i as i64) * 10_000_000 + seq as i64;
        let ClientSlot {
            conn: Some(conn),
            held_open,
            held_id,
            held_phase,
            ..
        } = &mut *slot
        else {
            return;
        };
        let result: DkResult<bool> = if held_mode {
            match *held_phase {
                0 => {
                    // Phase 1: open the transaction and insert.
                    *held_id = order_id;
                    conn.begin().and_then(|()| {
                        conn.execute(&format!(
                            "INSERT INTO orders VALUES ({order_id}, {}, 'new')",
                            order_id % 7 + 1
                        ))
                        .map(|_| {
                            *held_open = true;
                            *held_phase = 1;
                            false
                        })
                    })
                }
                1 => {
                    // Phase 2: more work inside the still-open txn.
                    let id = *held_id;
                    conn.execute(&format!(
                        "UPDATE orders SET status = 'shipped' WHERE id = {id}"
                    ))
                    .map(|_| {
                        *held_phase = 2;
                        false
                    })
                }
                _ => {
                    // Phase 3: read back and commit — the boundary a
                    // draining session migrates at.
                    let id = *held_id;
                    conn.execute(&format!("SELECT qty FROM orders WHERE id = {id}"))
                        .and_then(|_| conn.commit())
                        .map(|()| {
                            *held_open = false;
                            *held_phase = 0;
                            true
                        })
                }
            }
        } else {
            workload::run_txn(conn, order_id).map(|_| true)
        };
        match result {
            Ok(committed) => {
                if committed {
                    self.state.lock().stats.committed += 1;
                }
            }
            Err(_) => {
                let gone = !conn.is_open();
                {
                    let st = &mut self.state.lock().stats;
                    st.dropped_queries += 1;
                    if was_mid_txn && gone {
                        st.severed_transactions += 1;
                    }
                }
                if gone {
                    // The connection was closed under the application;
                    // the next firing re-establishes it.
                    slot.conn = None;
                } else if was_mid_txn {
                    // Transaction failed on its own (e.g. SQL error):
                    // roll it back so the slot starts clean.
                    if let Some(c) = slot.conn.as_mut() {
                        let _ = c.rollback();
                    }
                }
                slot.held_open = false;
                slot.held_phase = 0;
            }
        }
    }
}

impl Drop for SteadyLoad {
    fn drop(&mut self) {
        self.stop();
    }
}
