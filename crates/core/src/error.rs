//! Error type for the Drivolution core.

use std::error::Error;
use std::fmt;

/// Errors produced by Drivolution protocol handling, driver matchmaking,
/// packaging, signing, and transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DrvError {
    /// No driver matches the request (paper: `DRIVOLUTION_ERROR` with
    /// "no driver for specified API/platform").
    NoMatchingDriver(String),
    /// The requested database does not exist at this server (paper:
    /// "invalid database").
    InvalidDatabase(String),
    /// The client is not permitted to download the driver.
    PermissionDenied(String),
    /// A lease operation on an expired or revoked lease.
    LeaseExpired(String),
    /// The driver file transfer failed or was corrupted.
    TransferFailed(String),
    /// A driver signature did not verify.
    SignatureInvalid(String),
    /// The server certificate is not trusted by the bootloader.
    CertificateUntrusted(String),
    /// A malformed protocol frame.
    Codec(String),
    /// Transport failure (network down, partitioned, no server).
    Net(String),
    /// A policy violation (e.g. REVOKE in force and new connections
    /// blocked).
    Policy(String),
    /// Malformed driver package.
    BadPackage(String),
    /// Internal invariant violation.
    Internal(String),
    /// A renewal by reference named a request the server does not hold:
    /// the client sends the full request instead.
    ResendInFull(String),
}

impl fmt::Display for DrvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrvError::NoMatchingDriver(m) => write!(f, "no matching driver: {m}"),
            DrvError::InvalidDatabase(m) => write!(f, "invalid database: {m}"),
            DrvError::PermissionDenied(m) => write!(f, "permission denied: {m}"),
            DrvError::LeaseExpired(m) => write!(f, "lease expired: {m}"),
            DrvError::TransferFailed(m) => write!(f, "driver transfer failed: {m}"),
            DrvError::SignatureInvalid(m) => write!(f, "driver signature invalid: {m}"),
            DrvError::CertificateUntrusted(m) => write!(f, "server certificate untrusted: {m}"),
            DrvError::Codec(m) => write!(f, "malformed drivolution frame: {m}"),
            DrvError::Net(m) => write!(f, "network failure: {m}"),
            DrvError::Policy(m) => write!(f, "policy violation: {m}"),
            DrvError::BadPackage(m) => write!(f, "malformed driver package: {m}"),
            DrvError::Internal(m) => write!(f, "internal error: {m}"),
            DrvError::ResendInFull(m) => write!(f, "resend the full request: {m}"),
        }
    }
}

impl Error for DrvError {}

impl From<netsim::codec::CodecError> for DrvError {
    fn from(e: netsim::codec::CodecError) -> Self {
        DrvError::Codec(e.to_string())
    }
}

/// A field that parses or validates as it decodes (a version, a format,
/// chunking params) fails its frame with its own message.
impl From<DrvError> for netsim::codec::CodecError {
    fn from(e: DrvError) -> Self {
        netsim::codec::CodecError::new(e.to_string())
    }
}

impl From<netsim::NetError> for DrvError {
    fn from(e: netsim::NetError) -> Self {
        DrvError::Net(e.to_string())
    }
}

/// Convenience alias used throughout the crate.
pub type DrvResult<T> = Result<T, DrvError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_vocabulary() {
        assert!(DrvError::NoMatchingDriver("JDBC on beos".into())
            .to_string()
            .contains("no matching driver"));
        assert!(DrvError::InvalidDatabase("hr".into())
            .to_string()
            .contains("invalid database"));
    }

    #[test]
    fn conversions_from_substrate_errors() {
        let e: DrvError = netsim::NetError::Unreachable("x:1".into()).into();
        assert!(matches!(e, DrvError::Net(_)));
        let e: DrvError = netsim::codec::CodecError::new("tag").into();
        assert!(matches!(e, DrvError::Codec(_)));
    }
}
