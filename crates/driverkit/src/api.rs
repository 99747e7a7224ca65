//! RDBC — the database API of this reproduction (the JDBC analog).
//!
//! Client applications program against [`Driver`] and [`Connection`];
//! which concrete driver implementation sits behind them is decided at
//! runtime (statically linked legacy drivers, or images downloaded by the
//! Drivolution bootloader).

use std::collections::HashMap;
use std::fmt;

use minidb::{Params, QueryResult};

use drivolution_core::DriverVersion;

use crate::error::DkResult;
use crate::url::DbUrl;

/// Connection properties passed to [`Driver::connect`] — user identity
/// plus free-form options (the paper's "connection configuration
/// options").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConnectProps {
    /// Database user.
    pub user: String,
    /// Password (used directly or via challenge, per driver capability).
    pub password: String,
    /// Requested locale for NLS-extension drivers.
    pub locale: Option<String>,
    /// Driver-specific options; server-enforced `driver_options` are
    /// merged in by the bootloader.
    pub options: HashMap<String, String>,
}

impl ConnectProps {
    /// Creates properties for a user/password pair.
    pub fn user(user: impl Into<String>, password: impl Into<String>) -> Self {
        ConnectProps {
            user: user.into(),
            password: password.into(),
            locale: None,
            options: HashMap::new(),
        }
    }

    /// Sets the locale.
    pub fn with_locale(mut self, locale: impl Into<String>) -> Self {
        self.locale = Some(locale.into());
        self
    }
}

/// A live database connection.
///
/// Methods mirror what the paper's lifecycle and case studies need:
/// statement execution, transaction boundaries (for `AFTER_COMMIT`), and
/// two extension-gated operations modelling optional driver packages
/// (§5.4.1).
pub trait Connection: Send {
    /// Executes plain SQL.
    ///
    /// # Errors
    ///
    /// Database, transport, or revocation errors.
    fn execute(&mut self, sql: &str) -> DkResult<QueryResult>;

    /// Executes parameterized SQL (requires a driver speaking protocol
    /// v2+).
    ///
    /// # Errors
    ///
    /// [`crate::DkError::Unsupported`] on v1 drivers; otherwise as
    /// [`Connection::execute`].
    fn execute_params(&mut self, sql: &str, params: &Params) -> DkResult<QueryResult>;

    /// Opens a transaction.
    ///
    /// # Errors
    ///
    /// Database errors (e.g. nested BEGIN).
    fn begin(&mut self) -> DkResult<()>;

    /// Commits the open transaction.
    ///
    /// # Errors
    ///
    /// Database errors (e.g. no open transaction).
    fn commit(&mut self) -> DkResult<()>;

    /// Rolls back the open transaction.
    ///
    /// # Errors
    ///
    /// Database errors (e.g. no open transaction).
    fn rollback(&mut self) -> DkResult<()>;

    /// Whether a transaction is currently open.
    fn in_transaction(&self) -> bool;

    /// Whether the connection is usable.
    fn is_open(&self) -> bool;

    /// Closes the connection (idempotent).
    ///
    /// # Errors
    ///
    /// Transport errors on the close exchange.
    fn close(&mut self) -> DkResult<()>;

    /// GIS query — only drivers carrying the `gis` extension support it
    /// (PostGIS case, §5.4.1).
    ///
    /// # Errors
    ///
    /// [`crate::DkError::ExtensionMissing`] without the extension.
    fn geo_query(&mut self, wkt: &str) -> DkResult<QueryResult>;

    /// Localized driver message — requires an `nls-<locale>` extension
    /// (Oracle NLS / Derby per-country packages, §5.4.1).
    ///
    /// # Errors
    ///
    /// [`crate::DkError::ExtensionMissing`] without a matching locale
    /// package.
    fn localized_message(&self, key: &str) -> DkResult<String>;
}

impl fmt::Debug for dyn Connection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Connection")
            .field("open", &self.is_open())
            .field("in_transaction", &self.in_transaction())
            .finish()
    }
}

/// A database driver: what the bootloader downloads, loads, and swaps.
pub trait Driver: Send + Sync {
    /// Driver name (e.g. `minidb-rdbc`).
    fn name(&self) -> &str;

    /// Driver version.
    fn version(&self) -> DriverVersion;

    /// Opens a connection — the one API call the Drivolution bootloader
    /// intercepts (§3.1.1).
    ///
    /// # Errors
    ///
    /// Connect-time failures: protocol mismatch, authentication,
    /// unreachable hosts.
    fn connect(&self, url: &DbUrl, props: &ConnectProps) -> DkResult<Box<dyn Connection>>;
}

impl fmt::Debug for dyn Driver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Driver({} v{})", self.name(), self.version())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn props_builder() {
        let p = ConnectProps::user("bob", "pw").with_locale("fr_FR");
        assert_eq!(p.user, "bob");
        assert_eq!(p.locale.as_deref(), Some("fr_FR"));
    }
}
