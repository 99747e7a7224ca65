//! # drivolution-server — driver distribution service
//!
//! The server side of the Drivolution reproduction: driver and permission
//! tables stored as real SQL tables (queried with the paper's Sample
//! code 1–2), the `DRIVOLUTION_REQUEST`/`OFFER`/`ERROR` protocol, file
//! transfer inside the offer (`FETCH` → `OFFER_FILE`) or staged for a
//! `FILE_REQUEST`, with plain/checksum/sealed security, license management
//! (§5.4.2), on-demand driver assembly (§5.4.1), push notification
//! channels, and replication hooks for cluster embedding (§5.3.2).
//!
//! Three deployment variants ([`variants`]):
//!
//! * [`attach_in_database`] — tables in the production DB, service on a
//!   second port of the same host;
//! * [`launch_external`] — tables in a legacy DB reached through a legacy
//!   RDBC driver;
//! * [`launch_standalone`] — a dedicated service with an embedded store,
//!   serving many databases.

#![warn(missing_docs)]

pub mod assemble;
pub mod directory;
mod grant;
pub mod license;
pub mod notify;
mod offer;
pub mod rollout;
pub mod server;
pub mod store;
pub mod variants;

pub use assemble::Assembler;
pub use directory::{ComplaintOutcome, MirrorDirectory, MirrorEntry, MirrorHealth};
pub use grant::MAX_RENEW_REFS;
pub use license::LicenseManager;
pub use notify::NotifyHub;
pub use rollout::{
    partition, RolloutConfig, RolloutOrchestrator, RolloutPhase, RolloutPlan, RolloutStatus,
    WaveStatus,
};
pub use server::{AdminEvent, DrivolutionServer, ServerConfig, ServerStats};
pub use store::{DriverStore, EmbeddedExec, RemoteExec, SqlExec};
pub use variants::{attach_in_database, launch_external, launch_standalone};
