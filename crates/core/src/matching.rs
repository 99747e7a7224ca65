//! Driver matchmaking — the pure-Rust twin of the paper's server-side SQL
//! (Sample code 1 and 2, §4.1.1).
//!
//! The Drivolution server can find drivers either by running the paper's
//! actual SQL against `minidb`'s information schema, or through this
//! engine; integration tests assert both paths agree.

use crate::descriptor::{BinaryFormat, DriverRecord};
use crate::error::{DrvError, DrvResult};
use crate::permission::{like, ClientIdentity, PermissionRule};
use crate::version::{ApiVersion, DriverVersion};

/// A driver request, as carried by `DRIVOLUTION_REQUEST` (§3.4.1).
#[derive(Clone, Debug, PartialEq)]
pub struct DriverQuery {
    /// Who is asking, for permission filtering.
    pub identity: ClientIdentity,
    /// Requested API name (e.g. `RDBC`, `JDBC`).
    pub api_name: String,
    /// Optional requested API version.
    pub api_version: Option<ApiVersion>,
    /// Client platform string (e.g. `jre-1.5`, `linux-x86_64`).
    pub client_platform: String,
    /// Optional preferred binary format.
    pub preferred_format: Option<BinaryFormat>,
    /// Optional preferred driver version.
    pub preferred_version: Option<DriverVersion>,
}

impl DriverQuery {
    /// Creates a query with no version/format preferences.
    pub fn new(
        identity: ClientIdentity,
        api_name: impl Into<String>,
        platform: impl Into<String>,
    ) -> Self {
        DriverQuery {
            identity,
            api_name: api_name.into(),
            api_version: None,
            client_platform: platform.into(),
            preferred_format: None,
            preferred_version: None,
        }
    }
}

/// A successful match: the record to serve and the permission rule that
/// granted it (if permission rules are configured).
#[derive(Clone, Debug, PartialEq)]
pub struct Match<'a> {
    /// The matched driver row.
    pub record: &'a DriverRecord,
    /// The rule that granted it, when a distribution table is in use.
    pub rule: Option<&'a PermissionRule>,
}

/// Platform matching: exact match, or either side acting as a LIKE
/// pattern. The paper's SQL writes `platform LIKE $client_platform`; real
/// deployments also store patterns like `linux-%` in the driver table, so
/// the check is applied symmetrically. `None` (NULL) matches everything.
pub fn platform_matches(record_platform: Option<&str>, client_platform: &str) -> bool {
    match record_platform {
        None => true,
        Some(p) => like(p, client_platform) || like(client_platform, p),
    }
}

fn record_matches(rec: &DriverRecord, q: &DriverQuery) -> bool {
    // api_name LIKE $client_api_name (names are canonical uppercase).
    if !like(rec.api_name.as_str(), &q.api_name.to_ascii_uppercase()) {
        return false;
    }
    if !platform_matches(rec.platform.as_deref(), &q.client_platform) {
        return false;
    }
    // $client_api_version IS NULL OR api_version IS NULL OR match.
    if let Some(req) = &q.api_version {
        if !rec.api_version.matches(req) {
            return false;
        }
    }
    true
}

fn record_matches_preferences(rec: &DriverRecord, q: &DriverQuery) -> bool {
    if let Some(fmt) = q.preferred_format {
        if rec.format != fmt {
            return false;
        }
    }
    // $client_driver_version IS NULL OR driver_version IS NULL OR match.
    if let (Some(want), Some(have)) = (q.preferred_version, rec.version) {
        if want != have {
            return false;
        }
    }
    true
}

/// All candidates for `q`, permission-filtered, in table order.
///
/// When `rules` is non-empty it acts as the paper's distribution table:
/// only drivers granted by a matching rule are considered (Sample code 2
/// runs *first*). An empty rule set means an open server (Sample code 1
/// only).
pub fn candidates<'a>(
    records: &'a [DriverRecord],
    rules: &'a [PermissionRule],
    q: &DriverQuery,
    now_ms: i64,
) -> Vec<Match<'a>> {
    let granted: Option<Vec<(&PermissionRule, crate::descriptor::DriverId)>> = if rules.is_empty() {
        None
    } else {
        Some(
            rules
                .iter()
                .filter(|r| r.matches(&q.identity, now_ms))
                .map(|r| (r, r.driver_id))
                .collect(),
        )
    };

    let base: Vec<Match<'a>> = records
        .iter()
        .filter(|rec| record_matches(rec, q))
        .filter_map(|rec| match &granted {
            None => Some(Match {
                record: rec,
                rule: None,
            }),
            Some(g) => g
                .iter()
                .find(|(_, id)| *id == rec.id)
                .map(|(rule, _)| Match {
                    record: rec,
                    rule: Some(rule),
                }),
        })
        .collect();

    // Paper §4.1.1: try with client preferences; if unsuccessful, retry
    // the plain statement without them.
    let mut out: Vec<Match<'a>> = base
        .iter()
        .filter(|m| record_matches_preferences(m.record, q))
        .cloned()
        .collect();
    if out.is_empty() {
        out = base;
    }
    out
}

/// Finds the driver to serve, applying the paper's selection rule: "If
/// multiple drivers match the request, the first matching driver is
/// chosen."
///
/// # Errors
///
/// [`DrvError::NoMatchingDriver`] when nothing fits.
pub fn find_driver<'a>(
    records: &'a [DriverRecord],
    rules: &'a [PermissionRule],
    q: &DriverQuery,
    now_ms: i64,
) -> DrvResult<Match<'a>> {
    candidates(records, rules, q, now_ms)
        .into_iter()
        .next()
        .ok_or_else(|| {
            DrvError::NoMatchingDriver(format!(
                "no driver for API {} on {} (user {}, database {})",
                q.api_name, q.client_platform, q.identity.user, q.identity.database
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::{ApiName, DriverId};
    use bytes::Bytes;

    fn rec(id: i64) -> DriverRecord {
        DriverRecord::new(
            DriverId(id),
            ApiName::rdbc(),
            BinaryFormat::Djar,
            Bytes::new(),
        )
    }

    fn query() -> DriverQuery {
        DriverQuery::new(
            ClientIdentity::new("app", "10.0.0.1", "orders"),
            "rdbc",
            "linux-x86_64",
        )
    }

    #[test]
    fn open_server_first_match() {
        let records = vec![rec(1), rec(2)];
        let m = find_driver(&records, &[], &query(), 0).unwrap();
        assert_eq!(m.record.id, DriverId(1));
        assert!(m.rule.is_none());
    }

    #[test]
    fn api_name_filters() {
        let records = vec![
            DriverRecord::new(
                DriverId(1),
                ApiName::new("ODBC"),
                BinaryFormat::Djar,
                Bytes::new(),
            ),
            rec(2),
        ];
        let m = find_driver(&records, &[], &query(), 0).unwrap();
        assert_eq!(m.record.id, DriverId(2));
    }

    #[test]
    fn platform_null_is_wildcard_and_patterns_work() {
        assert!(platform_matches(None, "anything"));
        assert!(platform_matches(Some("linux-%"), "linux-x86_64"));
        assert!(platform_matches(Some("linux-x86_64"), "linux-x86_64"));
        assert!(!platform_matches(Some("windows-%"), "linux-x86_64"));
        let records = vec![
            rec(1).with_platform("windows-i586"),
            rec(2).with_platform("linux-%"),
        ];
        let m = find_driver(&records, &[], &query(), 0).unwrap();
        assert_eq!(m.record.id, DriverId(2));
    }

    #[test]
    fn api_version_wildcards_apply() {
        let records = vec![
            rec(1).with_api_version(ApiVersion::exact(2, 0)),
            rec(2).with_api_version(ApiVersion::exact(3, 0)),
        ];
        let mut q = query();
        q.api_version = Some(ApiVersion::exact(3, 0));
        let m = find_driver(&records, &[], &q, 0).unwrap();
        assert_eq!(m.record.id, DriverId(2));
        // No requested version matches anything (first wins).
        let m = find_driver(&records, &[], &query(), 0).unwrap();
        assert_eq!(m.record.id, DriverId(1));
    }

    #[test]
    fn preferences_filter_then_relax() {
        let records = vec![
            rec(1).with_version(DriverVersion::new(1, 0, 0)),
            rec(2).with_version(DriverVersion::new(2, 0, 0)),
        ];
        let mut q = query();
        q.preferred_version = Some(DriverVersion::new(2, 0, 0));
        let m = find_driver(&records, &[], &q, 0).unwrap();
        assert_eq!(m.record.id, DriverId(2));
        // A preference nothing satisfies falls back to the plain query
        // (paper: "a simple SELECT without preferences can be issued").
        q.preferred_version = Some(DriverVersion::new(9, 9, 9));
        let m = find_driver(&records, &[], &q, 0).unwrap();
        assert_eq!(m.record.id, DriverId(1));
    }

    #[test]
    fn permission_rules_gate_drivers() {
        let records = vec![rec(1), rec(2)];
        let rules = vec![
            PermissionRule::any(DriverId(2)).for_user("app"),
            PermissionRule::any(DriverId(1)).for_user("dba%"),
        ];
        let m = find_driver(&records, &rules, &query(), 0).unwrap();
        assert_eq!(m.record.id, DriverId(2));
        assert!(m.rule.is_some());
        // A user matching no rule gets nothing, even though records match.
        let mut q = query();
        q.identity.user = "stranger".into();
        assert!(matches!(
            find_driver(&records, &rules, &q, 0),
            Err(DrvError::NoMatchingDriver(_))
        ));
    }

    #[test]
    fn expired_rules_do_not_grant() {
        let records = vec![rec(1)];
        let rules = vec![PermissionRule::any(DriverId(1)).valid_between(Some(0), Some(100))];
        assert!(find_driver(&records, &rules, &query(), 50).is_ok());
        assert!(find_driver(&records, &rules, &query(), 101).is_err());
    }

    #[test]
    fn no_driver_error_is_descriptive() {
        let e = find_driver(&[], &[], &query(), 0).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("RDBC") || msg.contains("rdbc"));
        assert!(msg.contains("linux-x86_64"));
    }
}
