//! Controller group communication: total-order write replication and
//! driver-table replication between embedded Drivolution servers.
//!
//! ## Substitution note
//!
//! Sequoia uses a group communication stack (total-order multicast) among
//! controllers. This reproduction applies each write synchronously on
//! every live member, in ascending controller id, before the call
//! returns. The simulation runs one call at a time on one thread, so the
//! order in which writes are issued already is the total order every
//! member sees — the same guarantees (total order, virtual synchrony at
//! the granularity the case studies need) with no lock. Controllers that
//! are stopped miss writes and must be restarted with fresh state or
//! resynced at the backend level.

use std::sync::Arc;

use parking_lot::Mutex;

use driverkit::{DkError, DkResult};
use drivolution_server::AdminEvent;
use minidb::QueryResult;

use crate::controller::Controller;

/// A controller replication group.
pub struct Group {
    name: String,
    members: Mutex<Vec<Arc<Controller>>>,
}

impl std::fmt::Debug for Group {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Group")
            .field("name", &self.name)
            .field("members", &self.members.lock().len())
            .finish()
    }
}

impl Group {
    /// Creates an empty group.
    pub fn new(name: impl Into<String>) -> Arc<Self> {
        Arc::new(Group {
            name: name.into(),
            members: Mutex::new(Vec::new()),
        })
    }

    /// Group name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a controller to the group (idempotent).
    pub fn join(self: &Arc<Self>, ctrl: &Arc<Controller>) {
        let mut members = self.members.lock();
        if !members.iter().any(|m| m.id() == ctrl.id()) {
            members.push(ctrl.clone());
        }
        ctrl.set_group(self.clone());
    }

    /// Live members, ordered by id.
    pub fn live_members(&self) -> Vec<Arc<Controller>> {
        let mut v: Vec<Arc<Controller>> = self
            .members
            .lock()
            .iter()
            .filter(|m| m.is_running())
            .cloned()
            .collect();
        v.sort_by_key(|m| m.id());
        v
    }

    /// Executes a client write in total order on every live member's
    /// virtual database. The originating controller's result is returned.
    ///
    /// # Errors
    ///
    /// The origin's error; peer failures only affect peer backends.
    pub fn ordered_write(&self, origin: &Controller, sql: &str) -> DkResult<QueryResult> {
        let mut origin_result: Option<DkResult<QueryResult>> = None;
        for m in self.live_members() {
            let r = m.vdb().execute_write(sql);
            if m.id() == origin.id() {
                origin_result = Some(r);
            }
        }
        origin_result.unwrap_or_else(|| {
            Err(DkError::Closed(format!(
                "controller {} is not a live member of group {}",
                origin.id(),
                self.name
            )))
        })
    }

    /// Replicates a Drivolution admin event to every live member's
    /// embedded server ("when a new driver is added to a Drivolution
    /// server, it is instantly replicated to other Drivolution servers",
    /// §5.3.2).
    pub fn replicate_admin(&self, origin_id: u32, event: &AdminEvent) {
        for m in self.live_members() {
            if m.id() == origin_id {
                continue;
            }
            if let Some(server) = m.drivolution() {
                let _ = server.apply_replicated(event);
            }
        }
    }
}
