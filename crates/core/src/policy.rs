//! Lease renewal and expiration policies (paper Table 2 and §3.3/§3.4.2).

use std::fmt;

use netsim::codec::wire_enum;

wire_enum! {
    /// What the bootloader does when a lease needs renewal (Table 2,
    /// `renew_policy`, whose integer encoding the codes are).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
    pub enum RenewPolicy: u8 {
        /// Continue using the same driver with a fresh lease.
        #[default]
        Renew = 0,
        /// Download and switch to a new driver version.
        Upgrade = 1,
        /// Stop using the current driver even though no replacement exists.
        Revoke = 2,
    }
}

impl fmt::Display for RenewPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RenewPolicy::Renew => "RENEW",
            RenewPolicy::Upgrade => "UPGRADE",
            RenewPolicy::Revoke => "REVOKE",
        })
    }
}

wire_enum! {
    /// When existing connections must transition off the old driver
    /// (Table 2, `expiration_policy`, whose integer encoding the codes are).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
    pub enum ExpirationPolicy: u8 {
        /// Wait until the application explicitly closes each connection.
        #[default]
        AfterClose = 0,
        /// Close connections as soon as they are idle or their current
        /// transaction commits.
        AfterCommit = 1,
        /// Terminate all connections immediately.
        Immediate = 2,
    }
}

impl fmt::Display for ExpirationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExpirationPolicy::AfterClose => "AFTER_CLOSE",
            ExpirationPolicy::AfterCommit => "AFTER_COMMIT",
            ExpirationPolicy::Immediate => "IMMEDIATE",
        })
    }
}

wire_enum! {
    /// How the driver binary is transferred (Table 2, `transfer_method`:
    /// `-1` any, `>= 0` a protocol id).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
    pub enum TransferMethod: i8 {
        /// Any method the bootloader and server both support.
        Any = -1,
        /// Raw bytes, no integrity protection ("FTP-like").
        Plain = 0,
        /// Bytes with an integrity checksum.
        Checksum = 1,
        /// Sealed channel: certificate-verified, tamper-evident
        /// (the paper's "encrypted authenticated SSL channel").
        #[default]
        Sealed = 2,
    }
}

impl TransferMethod {
    /// Resolves `Any` against a server preference, keeping concrete
    /// methods as-is.
    pub fn resolve(self, server_default: TransferMethod) -> TransferMethod {
        match self {
            TransferMethod::Any => server_default,
            m => m,
        }
    }
}

impl fmt::Display for TransferMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TransferMethod::Any => "ANY",
            TransferMethod::Plain => "PLAIN",
            TransferMethod::Checksum => "CHECKSUM",
            TransferMethod::Sealed => "SEALED",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renew_policy_codes_match_table_2() {
        assert_eq!(RenewPolicy::Renew.code(), 0);
        assert_eq!(RenewPolicy::Upgrade.code(), 1);
        assert_eq!(RenewPolicy::Revoke.code(), 2);
        for p in [
            RenewPolicy::Renew,
            RenewPolicy::Upgrade,
            RenewPolicy::Revoke,
        ] {
            assert_eq!(RenewPolicy::from_code(p.code()).unwrap(), p);
        }
        assert!(RenewPolicy::from_code(7).is_none());
    }

    #[test]
    fn expiration_policy_codes_match_table_2() {
        assert_eq!(ExpirationPolicy::AfterClose.code(), 0);
        assert_eq!(ExpirationPolicy::AfterCommit.code(), 1);
        assert_eq!(ExpirationPolicy::Immediate.code(), 2);
        for p in [
            ExpirationPolicy::AfterClose,
            ExpirationPolicy::AfterCommit,
            ExpirationPolicy::Immediate,
        ] {
            assert_eq!(ExpirationPolicy::from_code(p.code()).unwrap(), p);
        }
        assert!(ExpirationPolicy::from_code(u8::MAX).is_none());
    }

    #[test]
    fn transfer_method_any_resolves() {
        assert_eq!(TransferMethod::Any.code(), -1);
        assert_eq!(
            TransferMethod::Any.resolve(TransferMethod::Sealed),
            TransferMethod::Sealed
        );
        assert_eq!(
            TransferMethod::Plain.resolve(TransferMethod::Sealed),
            TransferMethod::Plain
        );
        for m in [
            TransferMethod::Any,
            TransferMethod::Plain,
            TransferMethod::Checksum,
            TransferMethod::Sealed,
        ] {
            assert_eq!(TransferMethod::from_code(m.code()).unwrap(), m);
        }
    }

    #[test]
    fn defaults_favor_safety() {
        // The paper: "In its default configuration, Drivolution uses
        // encrypted authenticated SSL channels."
        assert_eq!(TransferMethod::default(), TransferMethod::Sealed);
        assert_eq!(ExpirationPolicy::default(), ExpirationPolicy::AfterClose);
        assert_eq!(RenewPolicy::default(), RenewPolicy::Renew);
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(RenewPolicy::Upgrade.to_string(), "UPGRADE");
        assert_eq!(ExpirationPolicy::AfterCommit.to_string(), "AFTER_COMMIT");
        assert_eq!(TransferMethod::Sealed.to_string(), "SEALED");
    }
}
