//! Driver distribution permissions — the in-memory form of the paper's
//! Table 2 (`driver_permission`).
//!
//! Each rule says *which client gets which driver for each database
//! instance*, with a validity window, a maximum lease, the policies to
//! apply at renewal/expiry, and the allowed transfer method. `None`
//! columns are wildcards, matching the paper's NULL semantics; string
//! columns use SQL-LIKE patterns.

use crate::descriptor::DriverId;
use crate::policy::{ExpirationPolicy, RenewPolicy, TransferMethod};

/// SQL-LIKE matching (`%`/`_`), the same semantics as
/// `minidb::like_match` (duplicated here to keep the core crate free of a
/// database dependency; a property test in the facade crate checks the two
/// stay in agreement).
pub fn like(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s) = (usize::MAX, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = pi;
            star_s = si;
            pi += 1;
        } else if star_p != usize::MAX {
            pi = star_p + 1;
            star_s += 1;
            si = star_s;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// The requesting client, as seen by the Drivolution server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientIdentity {
    /// Database user name.
    pub user: String,
    /// Client host/IP string.
    pub client_ip: String,
    /// Database the client wants to reach.
    pub database: String,
}

impl ClientIdentity {
    /// Creates an identity.
    pub fn new(
        user: impl Into<String>,
        client_ip: impl Into<String>,
        database: impl Into<String>,
    ) -> Self {
        ClientIdentity {
            user: user.into(),
            client_ip: client_ip.into(),
            database: database.into(),
        }
    }
}

/// One row of Table 2.
#[derive(Clone, Debug, PartialEq)]
pub struct PermissionRule {
    /// User pattern; `None` = any user.
    pub user: Option<String>,
    /// Client IP pattern; `None` = any client.
    pub client_ip: Option<String>,
    /// Database pattern; `None` = any database.
    pub database: Option<String>,
    /// The driver this rule grants.
    pub driver_id: DriverId,
    /// Extra options the bootloader must enforce at load time.
    pub driver_options: Option<String>,
    /// Validity window start (ms timestamp); `None` = always.
    pub start_date: Option<i64>,
    /// Validity window end (ms timestamp); `None` = always.
    pub end_date: Option<i64>,
    /// Maximum lease in milliseconds; `None` = server default.
    pub lease_time_ms: Option<i64>,
    /// Policy at lease renewal.
    pub renew_policy: RenewPolicy,
    /// Policy at lease expiry.
    pub expiration_policy: ExpirationPolicy,
    /// Allowed transfer method.
    pub transfer_method: TransferMethod,
}

impl PermissionRule {
    /// A wildcard rule granting `driver_id` to everyone, with defaults.
    pub fn any(driver_id: DriverId) -> Self {
        PermissionRule {
            user: None,
            client_ip: None,
            database: None,
            driver_id,
            driver_options: None,
            start_date: None,
            end_date: None,
            lease_time_ms: None,
            renew_policy: RenewPolicy::default(),
            expiration_policy: ExpirationPolicy::default(),
            transfer_method: TransferMethod::default(),
        }
    }

    /// Restricts the rule to a user pattern.
    pub fn for_user(mut self, pattern: impl Into<String>) -> Self {
        self.user = Some(pattern.into());
        self
    }

    /// Restricts the rule to a database pattern.
    pub fn for_database(mut self, pattern: impl Into<String>) -> Self {
        self.database = Some(pattern.into());
        self
    }

    /// Sets the validity window.
    pub fn valid_between(mut self, start: Option<i64>, end: Option<i64>) -> Self {
        self.start_date = start;
        self.end_date = end;
        self
    }

    /// Sets the maximum lease time.
    pub fn with_lease_ms(mut self, ms: i64) -> Self {
        self.lease_time_ms = Some(ms);
        self
    }

    /// Sets both policies.
    pub fn with_policies(mut self, renew: RenewPolicy, expiration: ExpirationPolicy) -> Self {
        self.renew_policy = renew;
        self.expiration_policy = expiration;
        self
    }

    /// Sets the transfer method.
    pub fn with_transfer(mut self, method: TransferMethod) -> Self {
        self.transfer_method = method;
        self
    }

    /// Sets driver options for the bootloader to enforce.
    pub fn with_options(mut self, options: impl Into<String>) -> Self {
        self.driver_options = Some(options.into());
        self
    }

    /// Whether this rule applies to `who` at time `now_ms` — the Rust
    /// mirror of the paper's Sample code 2 WHERE clause.
    pub fn matches(&self, who: &ClientIdentity, now_ms: i64) -> bool {
        let field = |pattern: &Option<String>, value: &str| match pattern {
            None => true,
            Some(p) => like(value, p),
        };
        if !field(&self.database, &who.database)
            || !field(&self.user, &who.user)
            || !field(&self.client_ip, &who.client_ip)
        {
            return false;
        }
        // Sample code 2: `start_date IS NULL OR end_date IS NULL OR now()
        // BETWEEN start_date AND end_date` — an open-ended window on either
        // side disables the date check entirely.
        match (self.start_date, self.end_date) {
            (Some(start), Some(end)) => now_ms >= start && now_ms <= end,
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn who() -> ClientIdentity {
        ClientIdentity::new("dba1", "10.0.0.5", "orders")
    }

    #[test]
    fn wildcard_rule_matches_everyone() {
        assert!(PermissionRule::any(DriverId(1)).matches(&who(), 0));
    }

    #[test]
    fn pattern_fields_use_like() {
        let r = PermissionRule {
            client_ip: Some("10.0.%".into()),
            ..PermissionRule::any(DriverId(1))
                .for_user("dba%")
                .for_database("orders")
        };
        assert!(r.matches(&who(), 0));
        let other = ClientIdentity::new("app1", "10.0.0.5", "orders");
        assert!(!r.matches(&other, 0));
        let elsewhere = ClientIdentity::new("dba1", "192.168.0.1", "orders");
        assert!(!r.matches(&elsewhere, 0));
        let other_db = ClientIdentity::new("dba1", "10.0.0.5", "hr");
        assert!(!r.matches(&other_db, 0));
    }

    #[test]
    fn date_window_semantics_match_sample_code_2() {
        let r = PermissionRule::any(DriverId(1)).valid_between(Some(100), Some(200));
        assert!(!r.matches(&who(), 99));
        assert!(r.matches(&who(), 100));
        assert!(r.matches(&who(), 200));
        assert!(!r.matches(&who(), 201));
        // One-sided windows are treated as always-valid, exactly like the
        // paper's SQL (start IS NULL OR end IS NULL OR ...).
        let open = PermissionRule::any(DriverId(1)).valid_between(Some(100), None);
        assert!(open.matches(&who(), 0));
        let open = PermissionRule::any(DriverId(1)).valid_between(None, Some(100));
        assert!(open.matches(&who(), 999));
    }

    #[test]
    fn builders_set_policies() {
        let r = PermissionRule::any(DriverId(2))
            .with_lease_ms(3_600_000)
            .with_policies(RenewPolicy::Upgrade, ExpirationPolicy::Immediate)
            .with_transfer(TransferMethod::Checksum)
            .with_options("fetch_size=10");
        assert_eq!(r.lease_time_ms, Some(3_600_000));
        assert_eq!(r.renew_policy, RenewPolicy::Upgrade);
        assert_eq!(r.expiration_policy, ExpirationPolicy::Immediate);
        assert_eq!(r.transfer_method, TransferMethod::Checksum);
        assert_eq!(r.driver_options.as_deref(), Some("fetch_size=10"));
    }

    #[test]
    fn like_engine_basics() {
        assert!(like("linux-x86_64", "linux-%"));
        assert!(like("abc", "a_c"));
        assert!(!like("abc", "a_"));
        assert!(like("", "%"));
        assert!(!like("x", ""));
    }
}
