//! Who may run which driver, and what a renewal turns into: the grant
//! lookup (the paper's Sample code 1 joined with Sample code 2, run once
//! per request as [`Grants`]) and the renewal rule (Table 4, §4.1.3, plus
//! the staged-rollout override, as the pure function [`renewal`]).
//! Nothing here touches the network.

use drivolution_core::{
    DriverId, DriverQuery, DriverRecord, DrvError, DrvResult, PermissionRule, RenewPolicy,
};

use crate::store::DriverStore;

/// Lease granted when no permission rule overrides it (paper §3.2:
/// "settings ranging from an hour to a day are suitable").
const DEFAULT_LEASE_MS: u64 = 3_600_000;

/// The lease time a grant under `rule` carries.
pub(crate) fn lease_ms(rule: Option<&PermissionRule>) -> u64 {
    rule.and_then(|r| r.lease_time_ms)
        .map(|ms| ms.max(1) as u64)
        .unwrap_or(DEFAULT_LEASE_MS)
}

/// A driver row with the rule granting it (`None` on an open
/// distribution point).
type Granted<'a> = (&'a DriverRecord, Option<&'a PermissionRule>);

/// One request's grant lookup: every later question about the request is
/// a `.find` over these two results.
pub(crate) struct Grants {
    /// Sample code 1 rows, in `driver_id` order.
    matching: Vec<DriverRecord>,
    /// Sample code 2 rows, or `None` when the permission table is empty
    /// (an open distribution point: Sample code 1 alone decides).
    permitted: Option<Vec<(DriverId, PermissionRule)>>,
}

impl Grants {
    /// Runs both statements for `q`.
    pub(crate) fn load(store: &DriverStore, q: &DriverQuery) -> DrvResult<Grants> {
        Ok(Grants {
            matching: store.matching_drivers(q)?,
            permitted: store.permitted(&q.identity)?,
        })
    }

    /// The rule granting `id` to this client, if any.
    pub(crate) fn rule_for(&self, id: DriverId) -> Option<&PermissionRule> {
        let rules = self.permitted.as_ref()?;
        rules.iter().find(|(d, _)| *d == id).map(|(_, rule)| rule)
    }

    fn granted<'a>(&'a self, rec: &'a DriverRecord) -> Option<Granted<'a>> {
        match &self.permitted {
            None => Some((rec, None)),
            Some(_) => self.rule_for(rec.id).map(|rule| (rec, Some(rule))),
        }
    }

    /// The first matching driver this client may run (Sample code 1's
    /// `LIMIT 1` over the join).
    pub(crate) fn first(&self, q: &DriverQuery) -> DrvResult<Granted<'_>> {
        let found = self.matching.iter().find_map(|rec| self.granted(rec));
        found.ok_or_else(|| {
            DrvError::NoMatchingDriver(match self.permitted {
                None => format!("no driver for API {} on {}", q.api_name, q.client_platform),
                Some(_) => format!(
                    "no permitted driver for user {} from {}",
                    q.identity.user, q.identity.client_ip
                ),
            })
        })
    }

    /// The client's *current* driver, when it still matches the query
    /// and is still permitted.
    pub(crate) fn current(&self, current: DriverId) -> Option<Granted<'_>> {
        let rec = self.matching.iter().find(|r| r.id == current)?;
        self.granted(rec)
    }
}

/// What a renewal request turns into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Renewal {
    /// Fresh lease on the driver the client already runs.
    Same,
    /// The client must download and switch to the offered driver.
    Switch,
    /// No lease and no replacement: the client stops using its driver.
    Revoked,
}

/// The renewal rule (Table 4, §4.1.3). `REVOKE` revokes. Otherwise a
/// match on the driver the client already runs renews it, and under
/// `UPGRADE` any other match is the upgrade. `RENEW` — "continue to use
/// the same driver" — keeps the current driver while it is still
/// granted, even though a different driver matches first; except that
/// the rollout control plane is authoritative for its managed drivers,
/// so a keep-current rule must not pin a client to a version the
/// orchestrator rolled forward or back.
pub(crate) fn renewal(
    policy: RenewPolicy,
    matched_is_current: bool,
    rollout_managed: bool,
    current_still_granted: bool,
) -> Renewal {
    match policy {
        RenewPolicy::Revoke => Renewal::Revoked,
        _ if matched_is_current => Renewal::Same,
        RenewPolicy::Upgrade => Renewal::Switch,
        RenewPolicy::Renew if current_still_granted && !rollout_managed => Renewal::Same,
        RenewPolicy::Renew => Renewal::Switch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::Arc;

    use bytes::Bytes;
    use drivolution_core::{ApiName, BinaryFormat, ClientIdentity};
    use minidb::{MiniDb, Params, QueryResult};
    use RenewPolicy::{Renew, Revoke, Upgrade};
    use Renewal::{Revoked, Same, Switch};

    use crate::store::{EmbeddedExec, SqlExec};

    /// An embedded store that counts the statements it is asked to run.
    struct CountingExec(EmbeddedExec, Arc<AtomicU64>);

    impl SqlExec for CountingExec {
        fn exec(&self, sql: &str, params: &Params) -> DrvResult<QueryResult> {
            self.1.fetch_add(1, Relaxed);
            self.0.exec(sql, params)
        }
    }

    /// The three things the permission table can say about a client, and
    /// what each lookup costs: (rules in the table, user asking) →
    /// (`permitted`, statements of the first request, of every later one).
    #[test]
    fn load_asks_the_permission_table_one_question_when_one_is_enough() {
        let rule = PermissionRule::any(DriverId(1)).for_user("dba%");
        let rows = [
            // A rule matched: there are rules, nothing left to ask.
            (Some(&rule), "dba7", Some(vec![DriverId(1)]), 2, 2),
            // No rule matched, but the table has rules: denied.
            (Some(&rule), "app", Some(vec![]), 3, 3),
            // No rule matched because there are none: an open
            // distribution point, and from now on the count is asked
            // first and settles it.
            (None, "app", None, 3, 2),
        ];
        for (rule, user, want, first, later) in rows {
            let sql = Arc::new(AtomicU64::new(0));
            let db = Arc::new(MiniDb::new("drvstore"));
            let exec = CountingExec(EmbeddedExec::new(db), sql.clone());
            let store = DriverStore::new(Box::new(exec));
            store.install_schema().unwrap();
            let rec = DriverRecord::new(
                DriverId(1),
                ApiName::rdbc(),
                BinaryFormat::Djar,
                Bytes::from_static(b"driver"),
            );
            store.add_driver(&rec).unwrap();
            if let Some(rule) = rule {
                store.add_permission(rule).unwrap();
            }
            let q = DriverQuery::new(
                ClientIdentity::new(user, "10.0.0.1", "orders"),
                "RDBC",
                "linux-x86_64",
            );
            for want_sql in [first, later, later] {
                sql.store(0, Relaxed);
                let grants = Grants::load(&store, &q).unwrap();
                assert_eq!(sql.load(Relaxed), want_sql, "statements for {user}");
                let ids = |p: &Vec<(DriverId, PermissionRule)>| {
                    p.iter().map(|(id, _)| *id).collect::<Vec<_>>()
                };
                assert_eq!(grants.permitted.as_ref().map(ids), want, "{user}");
                assert_eq!(grants.matching.len(), 1);
                assert_eq!(grants.first(&q).is_ok(), want != Some(vec![]), "{user}");
            }
            // Filling an open table (or emptying a ruled one) is seen by
            // the very next request, whichever question it asks first.
            match rule {
                None => store
                    .add_permission(&PermissionRule::any(DriverId(1)))
                    .unwrap(),
                Some(_) => assert_eq!(store.remove_permissions(DriverId(1)).unwrap(), 1),
            }
            let grants = Grants::load(&store, &q).unwrap();
            assert_eq!(
                grants.permitted.is_some(),
                rule.is_none(),
                "{user} after the flip"
            );
            assert!(grants.first(&q).is_ok());
        }
    }

    /// Every row of the rule. Columns: policy, matched == current,
    /// rollout-managed, current still granted → outcome.
    #[test]
    fn table_4_over_every_input() {
        #[rustfmt::skip]
        let rows = [
            // Table 4, REVOKE row: "stop using the driver", always.
            (Revoke,  true,  false, true,  Revoked),
            (Revoke,  true,  false, false, Revoked),
            (Revoke,  true,  true,  true,  Revoked),
            (Revoke,  true,  true,  false, Revoked),
            (Revoke,  false, false, true,  Revoked),
            (Revoke,  false, false, false, Revoked),
            (Revoke,  false, true,  true,  Revoked),
            (Revoke,  false, true,  false, Revoked),
            // Table 4, UPGRADE row: nothing newer matched → plain
            // renewal of the lease …
            (Upgrade, true,  false, true,  Same),
            (Upgrade, true,  false, false, Same),
            (Upgrade, true,  true,  true,  Same),
            (Upgrade, true,  true,  false, Same),
            // … a different match is the upgrade, wherever it came from
            // (catalogue or rollout) and whatever the old grant says.
            (Upgrade, false, false, true,  Switch),
            (Upgrade, false, false, false, Switch),
            (Upgrade, false, true,  true,  Switch),
            (Upgrade, false, true,  false, Switch),
            // Table 4, RENEW row: same driver, new lease.
            (Renew,   true,  false, true,  Same),
            (Renew,   true,  false, false, Same),
            // Rollout rule: the orchestrator resolved this host to the
            // version it already runs.
            (Renew,   true,  true,  true,  Same),
            (Renew,   true,  true,  false, Same),
            // Table 4, RENEW row, "continue to use the same driver": a
            // newer driver matches first but the current one is still
            // granted → keep it.
            (Renew,   false, false, true,  Same),
            // §4.1.3: the current driver's grant is gone (expired,
            // deleted) → the client moves to what matches now.
            (Renew,   false, false, false, Switch),
            // Rollout rule: wave-gated upgrade or post-halt rollback
            // overrides keep-current, granted or not.
            (Renew,   false, true,  true,  Switch),
            (Renew,   false, true,  false, Switch),
        ];
        assert_eq!(rows.len(), 3 * 2 * 2 * 2, "every combination is listed");
        for (policy, matched, rollout, granted, want) in rows {
            assert_eq!(
                renewal(policy, matched, rollout, granted),
                want,
                "{policy:?} matched_is_current={matched} rollout_managed={rollout} \
                 current_still_granted={granted}"
            );
        }
        let mut distinct = rows.map(|(p, m, r, g, _)| (p.code(), m, r, g)).to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), rows.len(), "no combination listed twice");
    }

    #[test]
    fn lease_time_defaults_and_clamps() {
        let driver = DriverId(1);
        assert_eq!(lease_ms(None), DEFAULT_LEASE_MS);
        assert_eq!(
            lease_ms(Some(&PermissionRule::any(driver))),
            DEFAULT_LEASE_MS
        );
        let short = PermissionRule::any(driver).with_lease_ms(0);
        assert_eq!(
            lease_ms(Some(&short)),
            1,
            "a zero lease would never be valid"
        );
    }
}
