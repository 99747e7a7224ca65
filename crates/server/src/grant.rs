//! Who may run which driver, and what a renewal turns into: the grant
//! lookup (the paper's Sample code 1 joined with Sample code 2 as
//! [`Grants`], the first asked once per frame) and the renewal rule
//! (Table 4, §4.1.3, plus the staged-rollout override, as the pure
//! function [`renewal`]). Nothing here touches the network.

use std::collections::hash_map::{Entry, HashMap};
use std::rc::Rc;

use drivolution_core::{
    proto::DrvRequest, ApiVersion, BinaryFormat, DriverId, DriverQuery, DriverRecord,
    DriverVersion, DrvError, DrvResult, PermissionRule, RenewPolicy,
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

/// Sample code 1's question: a [`DriverQuery`] less its identity.
#[derive(PartialEq, Eq, Hash)]
struct CatalogKey<'f> {
    api_name: &'f str,
    api_version: Option<ApiVersion>,
    client_platform: &'f str,
    preferred_format: Option<BinaryFormat>,
    preferred_version: Option<DriverVersion>,
}

/// What one frame (a `RENEW_BATCH`, or a lone request) read of `drivers`:
/// Sample code 1's rows per question, rows by id. Exact with nothing to
/// invalidate: nothing writes `drivers` inside a `handle_control` call, and
/// neither statement reads identity or `now()`. Errors are not kept.
#[derive(Default)]
pub(crate) struct FrameCatalog<'f> {
    questions: HashMap<CatalogKey<'f>, Rc<[DriverRecord]>>,
    by_id: HashMap<DriverId, Rc<DriverRecord>>,
}

impl FrameCatalog<'_> {
    /// The driver row `id` (a rollout target, an extension base).
    pub(crate) fn row(&mut self, store: &DriverStore, id: DriverId) -> DrvResult<Rc<DriverRecord>> {
        Ok(match self.by_id.entry(id) {
            Entry::Occupied(row) => row.get().clone(),
            Entry::Vacant(slot) => slot.insert(Rc::new(store.record(id)?)).clone(),
        })
    }
}

/// One request's grant lookup: every later question about the request is
/// a `.find` over these two results.
pub(crate) struct Grants {
    /// Sample code 1 rows, in `driver_id` order.
    matching: Rc<[DriverRecord]>,
    /// Sample code 2 rows, or `None` when the permission table is empty
    /// (an open distribution point: Sample code 1 alone decides).
    permitted: Option<Vec<(DriverId, PermissionRule)>>,
}

impl Grants {
    /// Both statements for `q`, the query of `req`; Sample code 1 once per frame.
    pub(crate) fn load<'f>(
        store: &DriverStore,
        catalog: &mut FrameCatalog<'f>,
        req: &'f DrvRequest,
        q: &DriverQuery,
    ) -> DrvResult<Grants> {
        let key = CatalogKey {
            api_name: &req.api_name,
            api_version: req.api_version,
            client_platform: &req.client_platform,
            preferred_format: req.preferred_format,
            preferred_version: req.preferred_version,
        };
        let matching = match catalog.questions.entry(key) {
            Entry::Occupied(rows) => rows.get().clone(),
            Entry::Vacant(slot) => slot.insert(store.matching_drivers(q)?.into()).clone(),
        };
        Ok(Grants {
            matching,
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
    use std::sync::atomic::Ordering::Relaxed;
    use std::sync::Arc;

    use bytes::Bytes;
    use drivolution_core::{ApiName, BinaryFormat, ClientIdentity};
    use minidb::MiniDb;
    use RenewPolicy::{Renew, Revoke, Upgrade};
    use Renewal::{Revoked, Same, Switch};

    use crate::store::counting;

    fn record(id: i64) -> DriverRecord {
        DriverRecord::new(
            DriverId(id),
            ApiName::rdbc(),
            BinaryFormat::Djar,
            Bytes::from_static(b"driver"),
        )
    }

    /// `req` and its query, as the server builds it for a client at
    /// 10.0.0.1.
    fn request(user: &str, platform: &str) -> (DrvRequest, DriverQuery) {
        let req = DrvRequest::bootstrap("orders", user, "RDBC", platform);
        let q = DriverQuery::new(
            ClientIdentity::new(user, "10.0.0.1", "orders"),
            "RDBC",
            platform,
        );
        (req, q)
    }

    /// A frame of one.
    fn load(store: &DriverStore, req: &DrvRequest, q: &DriverQuery) -> Grants {
        Grants::load(store, &mut FrameCatalog::default(), req, q).unwrap()
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
            let (store, sql) = counting::store(Arc::new(MiniDb::new("drvstore")));
            store.add_driver(&record(1)).unwrap();
            if let Some(rule) = rule {
                store.add_permission(rule).unwrap();
            }
            let (req, q) = request(user, "linux-x86_64");
            for want_sql in [first, later, later] {
                sql.all.store(0, Relaxed);
                let grants = load(&store, &req, &q);
                assert_eq!(sql.all.load(Relaxed), want_sql, "statements for {user}");
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
            let grants = load(&store, &req, &q);
            assert_eq!(
                grants.permitted.is_some(),
                rule.is_none(),
                "{user} after the flip"
            );
            assert!(grants.first(&q).is_ok());
        }
    }

    /// The §4.1.1 retry drops the preference clauses, so it runs only
    /// when there were some. Columns: client platform (the one driver is
    /// 1.0.0 for `windows-%`), preferred version → statements, rows
    /// found.
    #[test]
    fn sample_code_1_retries_only_when_it_had_preferences() {
        let v9 = Some(DriverVersion::new(9, 9, 9));
        let rows = [
            // Nothing matches and there was nothing to drop: one SELECT
            // (before PR 25, the same statement twice).
            ("linux-x86_64", None, 1, 0),
            // An unsatisfiable preference is retried without it …
            ("linux-x86_64", v9, 2, 0),
            // … and the retry finds what the platform allows.
            ("windows-x64", v9, 2, 1),
            ("windows-x64", None, 1, 1),
        ];
        let (store, sql) = counting::store(Arc::new(MiniDb::new("drvstore")));
        store
            .add_driver(
                &record(1)
                    .with_platform("windows-%")
                    .with_version(DriverVersion::new(1, 0, 0)),
            )
            .unwrap();
        for (platform, preferred, statements, found) in rows {
            let (_, mut q) = request("app", platform);
            q.preferred_version = preferred;
            sql.all.store(0, Relaxed);
            let rows = store.matching_drivers(&q).unwrap();
            assert_eq!(
                sql.all.load(Relaxed),
                statements,
                "{platform} {preferred:?}"
            );
            assert_eq!(rows.len(), found, "{platform} {preferred:?}");
        }
    }

    /// One frame asks each catalog question once, whoever asks it, and
    /// keeps no error: a row read by id after a miss is read again.
    #[test]
    fn a_frame_asks_each_catalog_question_once() {
        let (store, sql) = counting::store(Arc::new(MiniDb::new("drvstore")));
        store.add_driver(&record(1)).unwrap();
        let (app, app_q) = request("app", "linux-x86_64");
        let (dba, dba_q) = request("dba", "linux-x86_64");
        let (mut pinned, mut pinned_q) = request("app", "linux-x86_64");
        pinned.preferred_version = Some(DriverVersion::new(1, 0, 0));
        pinned_q.preferred_version = pinned.preferred_version;
        let mut catalog = FrameCatalog::default();
        for (req, q) in [
            (&app, &app_q),
            (&dba, &dba_q),
            (&pinned, &pinned_q),
            (&app, &app_q),
        ] {
            let grants = Grants::load(&store, &mut catalog, req, q).unwrap();
            assert_eq!(grants.first(q).unwrap().0.id, DriverId(1));
        }
        // Two questions, one statement each (the pinned one matches at
        // once: the row's version is NULL).
        assert_eq!(sql.sample_code_1.load(Relaxed), 2);

        sql.all.store(0, Relaxed);
        assert!(catalog.row(&store, DriverId(2)).is_err());
        store.add_driver(&record(2)).unwrap();
        for _ in 0..3 {
            assert_eq!(catalog.row(&store, DriverId(2)).unwrap().id, DriverId(2));
        }
        // The miss, the INSERT, one read.
        assert_eq!(sql.all.load(Relaxed), 3);
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
