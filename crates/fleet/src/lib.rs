//! # fleet — operational fleet simulation
//!
//! The paper's quantitative claims are operational: driver updates cost
//! ten error-prone steps per client application in the conventional
//! lifecycle versus one INSERT with Drivolution (§2, §3.2, Table 5).
//! This crate makes those claims executable:
//!
//! * [`ops`] — the lifecycles as step lists with durations, downtime,
//!   and retry risk;
//! * [`model`] — fleets (machines × platforms × applications ×
//!   databases) and the driver-matrix blow-up of §1;
//! * [`report`] — regenerates Table 5 and fleet-wide comparisons;
//! * [`sim`] — a live fleet of real bootloaders against a real
//!   Drivolution server under virtual time, measuring upgrade propagation
//!   and server traffic versus lease length (§3.2's tradeoff). One
//!   [`SimSpec`] describes every such world (zones and mirrors, rollout
//!   self-checks, hot swap, batched renewals, push channels) and
//!   [`FleetSim::from_spec`] builds it;
//! * [`workload`] — an OLTP-ish workload to demonstrate zero-downtime
//!   upgrades under load;
//! * [`load`] — a scheduler-driven steady-load harness whose
//!   dropped/severed ledger proves (or disproves) that an upgrade was
//!   invisible to the application.

#![warn(missing_docs)]

pub mod aggregator;
pub mod load;
pub mod model;
pub mod ops;
pub mod report;
pub mod sim;
pub mod workload;

pub use aggregator::{AggregatorStats, RenewalAggregator};
pub use load::{LoadStats, SteadyLoad};
pub use model::{AppSpec, FleetSpec};
pub use ops::{OpStep, Procedure};
pub use report::{
    fleet_install_report, fleet_update_report, render_fleet_update, render_table5, table5,
    FleetInstallReport, FleetUpdateReport, OpsRow,
};
pub use sim::{FleetSim, PropagationResult, SimSpec, DEFAULT_POLL_EVERY};
