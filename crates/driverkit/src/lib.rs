//! # driverkit — the RDBC database API and driver runtime
//!
//! The JDBC analog of this reproduction. Client applications program
//! against the [`Driver`]/[`Connection`] traits; behind them sit either
//! statically linked [`legacy`] drivers (the conventional lifecycle the
//! paper criticizes) or drivers instantiated at runtime by the
//! [`DriverVm`] from downloaded [`DriverImage`]s (the Drivolution
//! lifecycle).
//!
//! Key pieces:
//!
//! * [`api`] — the `Driver` / `Connection` traits and connect properties;
//! * [`vm`] — bytes → container → image → live driver, with pluggable
//!   per-flavor factories (the cluster middleware registers its own);
//! * [`registry`] — classloader-style namespaces: multiple driver
//!   versions loaded side by side, one active for new connects;
//! * [`pool`] — a connection pool, needed to reproduce the paper's
//!   `AFTER_CLOSE`-starvation caveat;
//! * [`url`] — `rdbc:minidb://…` and `rdbc:cluster://…` URLs.
//!
//! [`DriverImage`]: drivolution_core::DriverImage

#![warn(missing_docs)]

pub mod api;
mod error;
pub mod interpreted;
pub mod legacy;
pub mod pool;
pub mod registry;
pub mod url;
pub mod vm;

pub use api::{ConnectProps, Connection, Driver};
pub use error::{DkError, DkResult};
pub use interpreted::{interpret_direct, InterpretedDriver};
pub use legacy::{legacy_driver, legacy_image};
pub use pool::{ConnectionPool, PooledConnection};
pub use registry::{DriverRegistry, Namespace, NamespaceId};
pub use url::{DbUrl, UrlScheme};
pub use vm::{DriverFactory, DriverVm};
