//! # drivolution-bootloader — the client-side interceptor
//!
//! "A generic client-side bootloader downloads and executes the driver
//! code provided by the database. This bootloader is simple and almost
//! never needs upgrading, much like an operating system bootloader."
//! (paper §1)
//!
//! The bootloader intercepts a single API call — `connect` — and does
//! everything else behind it: server discovery or selection, the
//! `DRIVOLUTION_REQUEST`/`OFFER` exchange, secure file transfer with
//! certificate and signature checks, driver loading into isolated
//! namespaces, lease renewal, transparent hot upgrades under the three
//! expiration policies, revocation, lazy extension fetch, and license
//! give-back. Under a [`LifecyclePolicy`], the bootloader also registers
//! its own upgrade-poll task and lease auto-renewal timer on the
//! network's scheduler, so no application code has to remember to call
//! [`Bootloader::poll`] at the right moment.
//!
//! This crate deliberately contains **no SQL and no driver logic** —
//! mirroring the paper's claim that one bootloader implementation per API
//! suffices for all drivers of all databases.

#![warn(missing_docs)]

mod bootloader;
mod config;
mod fetch;
mod managed;
mod renew;
mod swap;
mod tracker;

pub use bootloader::{BootStats, Bootloader, PollOutcome};
pub use config::{ActivationCheck, BootloaderConfig, LifecyclePolicy, ServerLocator};
pub use fetch::MirrorFetchStats;
pub use managed::ManagedConnection;
pub use swap::{SwapConfig, SwapStats};
pub use tracker::{ConnectionTracker, EscalationOutcome};
