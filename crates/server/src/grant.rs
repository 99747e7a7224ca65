//! Who may run which driver, and what a renewal turns into: the grant
//! lookup (the paper's Sample code 1 joined with Sample code 2 as
//! [`Grants`], both answered from the [`GrantMemo`] while the tables they
//! read and the clock's rule window hold), the renewal rule (Table 4,
//! §4.1.3, plus the staged-rollout override, as the pure function
//! [`renewal`]) and the requests a renewal by reference names
//! ([`RenewRefs`]). Nothing here touches the network.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use netsim::Addr;

use drivolution_core::proto::DrvRequest;
use drivolution_core::{
    ClientIdentity, DriverId, DriverQuery, DriverRecord, DrvError, DrvResult, PermissionRule,
    RenewPolicy,
};

use crate::server::DrivolutionServer;
use crate::store::Stamps;

/// Lease granted when no permission rule overrides it (paper §3.2:
/// "settings ranging from an hour to a day are suitable").
const DEFAULT_LEASE_MS: u64 = 3_600_000;

/// Sample code 1 questions kept at most; the client picks the API name
/// and platform strings, so past this the list is flushed wholesale.
const MAX_QUESTIONS: usize = 64;

/// Sample code 2 answers kept at most, one per identity: the client picks
/// the user and database strings, so past this the map is flushed
/// wholesale (as minidb's parse cache is).
pub(crate) const MAX_IDENTITIES: usize = 1 << 16;

/// Client addresses whose last lone request the server keeps at most for
/// renewals by reference: the client picks its address, so past this the
/// table is flushed wholesale, as the grant memo's identities are. A
/// flushed client resends in full once.
pub const MAX_RENEW_REFS: usize = MAX_IDENTITIES;

/// Distinct requests [`RenewRefs`] compares a new one with, so that equal
/// requests from many hosts share one copy.
const RECENT_REQUESTS: usize = 8;

/// The lease time a grant under `rule` carries.
pub(crate) fn lease_ms(rule: Option<&PermissionRule>) -> u64 {
    rule.and_then(|r| r.lease_time_ms)
        .map(|ms| ms.max(1) as u64)
        .unwrap_or(DEFAULT_LEASE_MS)
}

/// A driver row with the rule granting it (`None` on an open
/// distribution point).
type Granted<'a> = (&'a DriverRecord, Option<&'a PermissionRule>);

/// What the permission table says about one identity: its Sample code 2
/// rows, or `None` on an open distribution point.
type Permitted = Option<Arc<[(DriverId, PermissionRule)]>>;

/// The grant questions a request asks from a client host, read off the
/// request in place: the owned [`DriverQuery`] and [`ClientIdentity`]
/// are built only for the statements a memo miss runs.
#[derive(Clone, Copy)]
pub(crate) struct Asked<'a> {
    pub(crate) req: &'a DrvRequest,
    pub(crate) host: &'a str,
}

impl Asked<'_> {
    /// Sample code 1's question.
    pub(crate) fn query(&self) -> DriverQuery {
        DriverQuery {
            identity: self.identity(),
            api_name: self.req.api_name.clone(),
            api_version: self.req.api_version,
            client_platform: self.req.client_platform.clone(),
            preferred_format: self.req.preferred_format,
            preferred_version: self.req.preferred_version,
        }
    }

    /// Who asks: Sample code 2's identity and the lease table's key.
    pub(crate) fn identity(&self) -> ClientIdentity {
        ClientIdentity::new(&self.req.user, self.host, &self.req.database)
    }

    /// The identity's parts, in [`ClientIdentity`] order.
    pub(crate) fn who(&self) -> [&str; 3] {
        [&self.req.user, self.host, &self.req.database]
    }

    /// Whether Sample code 1 answered `q` what it would answer this:
    /// equal but for the identity, which it does not read.
    fn asks(&self, q: &DriverQuery) -> bool {
        q.api_name == self.req.api_name
            && q.api_version == self.req.api_version
            && q.client_platform == self.req.client_platform
            && q.preferred_format == self.req.preferred_format
            && q.preferred_version == self.req.preferred_version
    }
}

/// When the memo's answers were read: under these write stamps of
/// `drivers` and `driver_permission`, with `now()` anywhere in `window`
/// (no rule's date clause changes value inside it).
struct Epoch {
    drivers: u64,
    permissions: u64,
    window: Range<i64>,
}

/// What the server has read of the two grant tables, kept until they
/// change. With an executor that reports [`Stamps`], the answers live for
/// an [`Epoch`]: a renewal whose tables are unchanged runs no grant
/// statement. Without, they live for one frame (`framed` ends it
/// with [`GrantMemo::end_frame`]), which is exact because nothing writes
/// the tables inside one call, and Sample code 2, which reads identity and
/// `now()`, is not kept. Errors are never kept.
#[derive(Default)]
pub(crate) struct GrantMemo {
    /// `None`: the answers belong to the current frame.
    epoch: Option<Epoch>,
    /// Sample code 1 rows per question.
    questions: Vec<(DriverQuery, Arc<[DriverRecord]>)>,
    /// Driver rows by id (a rollout target, an extension base).
    by_id: HashMap<DriverId, Arc<DriverRecord>>,
    /// Sample code 2 answers by identity, packed by [`pack_identity`];
    /// kept only under an epoch.
    identities: HashMap<Box<[u8]>, Permitted>,
    /// The last answer kept, which an equal one shares.
    latest: Permitted,
    /// Reused to pack the identity a lookup asks for.
    packed: Vec<u8>,
}

/// `who` (user, client host, database) as one key: each part behind its
/// length, so no two identities pack alike.
fn pack_identity(key: &mut Vec<u8>, who: [&str; 3]) {
    key.clear();
    for part in who {
        key.extend_from_slice(&part.len().to_le_bytes());
        key.extend_from_slice(part.as_bytes());
    }
}

impl GrantMemo {
    /// Whether the answers kept hold under `stamps` (`None`: the
    /// executor reports none, and they hold for the frame).
    fn holds(&self, stamps: Option<&Stamps>) -> bool {
        match (&self.epoch, stamps) {
            (None, None) => true,
            (Some(e), Some(s)) => {
                e.drivers == s.drivers
                    && e.permissions == s.permissions
                    && e.window.contains(&s.now)
            }
            _ => false,
        }
    }

    /// Drops every answer and starts `epoch`.
    fn reset(&mut self, epoch: Option<Epoch>) {
        *self = GrantMemo {
            epoch,
            packed: std::mem::take(&mut self.packed),
            ..GrantMemo::default()
        };
    }

    /// Ends a frame: answers that live for one are dropped.
    pub(crate) fn end_frame(&mut self) {
        if self.epoch.is_none() {
            self.reset(None);
        }
    }

    fn matching(&self, asked: &Asked) -> Option<Arc<[DriverRecord]>> {
        let found = self.questions.iter().find(|(q, _)| asked.asks(q));
        found.map(|(_, rows)| rows.clone())
    }

    fn permitted(&mut self, who: [&str; 3]) -> Option<Permitted> {
        pack_identity(&mut self.packed, who);
        self.identities.get(self.packed.as_slice()).cloned()
    }

    fn keep_matching(&mut self, q: DriverQuery, rows: Arc<[DriverRecord]>) {
        if self.questions.len() >= MAX_QUESTIONS {
            self.questions.clear();
        }
        self.questions.push((q, rows));
    }

    /// Keeps `answer` for `who` under an epoch, shared with the last
    /// answer kept when equal; returns the copy kept.
    fn keep_permitted(&mut self, who: [&str; 3], answer: Permitted) -> Permitted {
        if self.epoch.is_none() {
            return answer;
        }
        let answer = match (&self.latest, answer) {
            (Some(latest), Some(fresh)) if *latest == fresh => Some(latest.clone()),
            (_, fresh) => fresh,
        };
        if self.identities.len() >= MAX_IDENTITIES {
            self.identities.clear();
        }
        pack_identity(&mut self.packed, who);
        self.identities
            .insert(self.packed.as_slice().into(), answer.clone());
        self.latest = answer.clone();
        answer
    }
}

/// A lone request kept for renewal by reference, under its
/// [`DrvRequest::context_digest`].
pub(crate) struct KeptRequest {
    pub(crate) token: u64,
    pub(crate) req: DrvRequest,
}

/// The last lone request each client address had granted, which its
/// `RENEW_REF` names by token. A token is honoured only for the address
/// (host and port) that registered it, so clients sharing a host keep
/// their own. Equal requests share one [`KeptRequest`].
#[derive(Default)]
pub(crate) struct RenewRefs {
    by_addr: HashMap<Addr, Arc<KeptRequest>>,
    /// The last distinct requests kept, newest last.
    recent: Vec<Arc<KeptRequest>>,
}

impl RenewRefs {
    /// Keeps `req` as `from`'s request. Its digest is taken only when no
    /// equal request is kept already.
    pub(crate) fn keep(&mut self, from: &Addr, req: &DrvRequest) {
        let same = |k: &Arc<KeptRequest>| k.req.same_context(req);
        if self.by_addr.get(from).is_some_and(same) {
            return;
        }
        let kept = match self.recent.iter().find(|k| same(k)) {
            Some(k) => Arc::clone(k),
            None => {
                let k = Arc::new(KeptRequest {
                    token: req.context_digest(),
                    req: req.clone(),
                });
                if self.recent.len() >= RECENT_REQUESTS {
                    self.recent.remove(0);
                }
                self.recent.push(Arc::clone(&k));
                k
            }
        };
        if let Some(slot) = self.by_addr.get_mut(from) {
            *slot = kept;
            return;
        }
        if self.by_addr.len() >= MAX_RENEW_REFS {
            self.by_addr.clear();
        }
        self.by_addr.insert(from.clone(), kept);
    }

    /// `from`'s kept request, when `token` names it.
    pub(crate) fn get(&self, from: &Addr, token: u64) -> Option<Arc<KeptRequest>> {
        let kept = self.by_addr.get(from).filter(|k| k.token == token);
        kept.cloned()
    }
}

impl DrivolutionServer {
    /// Both statements for `asked`, each from the memo while it holds.
    /// SQL runs with the state guard dropped, and its answer is kept only
    /// if the memo still holds when it returns: no write came in between
    /// and the clock did not leave the rule window.
    pub(crate) fn grants(&self, asked: &Asked) -> DrvResult<Grants> {
        let stamps = self.store.stamps();
        let kept = {
            let memo = &mut self.state.lock().grants;
            memo.holds(stamps.as_ref())
                .then(|| (memo.matching(asked), memo.permitted(asked.who())))
        };
        let (matching, permitted) = match kept {
            Some(kept) => kept,
            None => {
                self.start_epoch(stamps)?;
                (None, None)
            }
        };
        let matching = match matching {
            Some(rows) => rows,
            None => {
                let q = asked.query();
                let rows: Arc<[DriverRecord]> = self.store.matching_drivers(&q)?.into();
                self.keep(|memo| memo.keep_matching(q, rows.clone()));
                rows
            }
        };
        let permitted = match permitted {
            Some(answer) => answer,
            None => {
                let answer: Permitted = self.store.permitted(&asked.identity())?.map(Arc::from);
                self.keep(|memo| memo.keep_permitted(asked.who(), answer.clone()))
                    .unwrap_or(answer)
            }
        };
        Ok(Grants {
            matching,
            permitted,
        })
    }

    /// The driver row `id` (a rollout target, an extension base), from the
    /// memo while it holds.
    pub(crate) fn driver_row(&self, id: DriverId) -> DrvResult<Arc<DriverRecord>> {
        let stamps = self.store.stamps();
        let kept = {
            let memo = &self.state.lock().grants;
            memo.holds(stamps.as_ref())
                .then(|| memo.by_id.get(&id).cloned())
        };
        if let Some(row) = kept.flatten() {
            return Ok(row);
        }
        let row = Arc::new(self.store.record(id)?);
        self.keep(|memo| {
            memo.by_id.insert(id, row.clone());
        });
        Ok(row)
    }

    /// Moves the memo to the epoch `stamps` belong to, dropping what it
    /// kept. A write between reading `stamps` and reading the rule window
    /// only labels the epoch with stamps no table will show again.
    fn start_epoch(&self, stamps: Option<Stamps>) -> DrvResult<()> {
        let epoch = match stamps {
            None => None,
            Some(s) => Some(Epoch {
                drivers: s.drivers,
                permissions: s.permissions,
                window: self.store.rule_window(s.now)?,
            }),
        };
        self.state.lock().grants.reset(epoch);
        Ok(())
    }

    /// Runs `put` on the memo if it holds under stamps read now, after
    /// the SQL whose answer `put` keeps.
    fn keep<R>(&self, put: impl FnOnce(&mut GrantMemo) -> R) -> Option<R> {
        let stamps = self.store.stamps();
        let memo = &mut self.state.lock().grants;
        memo.holds(stamps.as_ref()).then(|| put(memo))
    }
}

/// One request's grant lookup: every later question about the request is
/// a `.find` over these two results.
pub(crate) struct Grants {
    /// Sample code 1 rows, in `driver_id` order.
    matching: Arc<[DriverRecord]>,
    /// Sample code 2 rows, or `None` when the permission table is empty
    /// (an open distribution point: Sample code 1 alone decides).
    permitted: Permitted,
}

impl Grants {
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
    pub(crate) fn first(&self, asked: &Asked) -> DrvResult<Granted<'_>> {
        let found = self.matching.iter().find_map(|rec| self.granted(rec));
        let req = asked.req;
        found.ok_or_else(|| {
            DrvError::NoMatchingDriver(match self.permitted {
                None => format!(
                    "no driver for API {} on {}",
                    req.api_name, req.client_platform
                ),
                Some(_) => format!(
                    "no permitted driver for user {} from {}",
                    req.user, asked.host
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
    use drivolution_core::{ApiName, BinaryFormat, DriverVersion};
    use minidb::MiniDb;
    use netsim::Clock;
    use RenewPolicy::{Renew, Revoke, Upgrade};
    use Renewal::{Revoked, Same, Switch};

    use crate::server::ServerConfig;
    use crate::store::{counting, DriverStore};

    fn record(id: i64) -> DriverRecord {
        DriverRecord::new(
            DriverId(id),
            ApiName::rdbc(),
            BinaryFormat::Djar,
            Bytes::from_static(b"driver"),
        )
    }

    /// The query the server builds for `user` at 10.0.0.1.
    fn query(user: &str, platform: &str) -> DriverQuery {
        DriverQuery::new(
            ClientIdentity::new(user, "10.0.0.1", "orders"),
            "RDBC",
            platform,
        )
    }

    /// The request `user` sends from 10.0.0.1.
    fn request(user: &str, platform: &str) -> DrvRequest {
        DrvRequest::bootstrap("orders", user, "RDBC", platform)
    }

    /// What `req` asks from 10.0.0.1.
    fn asked(req: &DrvRequest) -> Asked<'_> {
        Asked {
            req,
            host: "10.0.0.1",
        }
    }

    fn server(store: DriverStore) -> DrivolutionServer {
        DrivolutionServer::new("drv1", store, Clock::simulated(), ServerConfig::default())
    }

    /// A frame of one.
    fn load(srv: &DrivolutionServer, q: &DrvRequest) -> Grants {
        let grants = srv.grants(&asked(q)).unwrap();
        srv.state.lock().grants.end_frame();
        grants
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
            let srv = server(store);
            let store = srv.store();
            store.add_driver(&record(1)).unwrap();
            if let Some(rule) = rule {
                store.add_permission(rule).unwrap();
            }
            let q = request(user, "linux-x86_64");
            for want_sql in [first, later, later] {
                sql.all.store(0, Relaxed);
                let grants = load(&srv, &q);
                assert_eq!(sql.all.load(Relaxed), want_sql, "statements for {user}");
                let ids = |p: &Arc<[(DriverId, PermissionRule)]>| {
                    p.iter().map(|(id, _)| *id).collect::<Vec<_>>()
                };
                assert_eq!(grants.permitted.as_ref().map(ids), want, "{user}");
                assert_eq!(grants.matching.len(), 1);
                assert_eq!(
                    grants.first(&asked(&q)).is_ok(),
                    want != Some(vec![]),
                    "{user}"
                );
            }
            // Filling an open table (or emptying a ruled one) is seen by
            // the very next request, whichever question it asks first.
            match rule {
                None => store
                    .add_permission(&PermissionRule::any(DriverId(1)))
                    .unwrap(),
                Some(_) => assert_eq!(store.remove_permissions(DriverId(1)).unwrap(), 1),
            }
            let grants = load(&srv, &q);
            assert_eq!(
                grants.permitted.is_some(),
                rule.is_none(),
                "{user} after the flip"
            );
            assert!(grants.first(&asked(&q)).is_ok());
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
            let mut q = query("app", platform);
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
        let srv = server(store);
        srv.store().add_driver(&record(1)).unwrap();
        let app = request("app", "linux-x86_64");
        let dba = request("dba", "linux-x86_64");
        let mut pinned = request("app", "linux-x86_64");
        pinned.preferred_version = Some(DriverVersion::new(1, 0, 0));
        for q in [&app, &dba, &pinned, &app] {
            let grants = srv.grants(&asked(q)).unwrap();
            assert_eq!(grants.first(&asked(q)).unwrap().0.id, DriverId(1));
        }
        // Two questions, one statement each (the pinned one matches at
        // once: the row's version is NULL).
        assert_eq!(sql.sample_code_1.load(Relaxed), 2);

        sql.all.store(0, Relaxed);
        assert!(srv.driver_row(DriverId(2)).is_err());
        srv.store().add_driver(&record(2)).unwrap();
        for _ in 0..3 {
            assert_eq!(srv.driver_row(DriverId(2)).unwrap().id, DriverId(2));
        }
        // The miss, the INSERT, one read.
        assert_eq!(sql.all.load(Relaxed), 3);

        // The frame ends, and with it what it read.
        srv.state.lock().grants.end_frame();
        srv.grants(&asked(&app)).unwrap();
        assert_eq!(sql.sample_code_1.load(Relaxed), 3);
    }

    /// A memo over an executor that reports stamps, with drivers 1 and 2
    /// installed, and its statement counts.
    fn stamped() -> (DrivolutionServer, Arc<MiniDb>, Arc<counting::SqlCounts>) {
        let db = Arc::new(MiniDb::new("drvstore"));
        let (store, sql) = counting::with_stamps(db.clone(), true);
        let srv = server(store);
        for id in [1, 2] {
            srv.store().add_driver(&record(id)).unwrap();
        }
        (srv, db, sql)
    }

    /// Statements `f` runs.
    fn statements<T>(sql: &counting::SqlCounts, f: impl FnOnce() -> T) -> (T, u64) {
        sql.all.store(0, Relaxed);
        let out = f();
        (out, sql.all.load(Relaxed))
    }

    /// A rule written by plain SQL, past the server's API, is seen by the
    /// very next request; until then, a request runs no grant statement.
    #[test]
    fn a_rule_inserted_by_plain_sql_is_seen_by_the_very_next_renewal() {
        let (srv, db, sql) = stamped();
        let q = request("app", "linux-x86_64");
        let first = |srv: &DrivolutionServer| {
            let asked = asked(&q);
            srv.grants(&asked).unwrap().first(&asked).unwrap().0.id
        };
        // The rule window, Sample code 1, Sample code 2 and the count
        // that finds the table open.
        assert_eq!(statements(&sql, || first(&srv)), (DriverId(1), 4));
        assert_eq!(statements(&sql, || first(&srv)), (DriverId(1), 0));
        db.exec(
            &mut db.admin_session(),
            "INSERT INTO information_schema.driver_permission VALUES \
             (NULL, NULL, NULL, 2, NULL, NULL, NULL, NULL, NULL, NULL, NULL)",
        )
        .unwrap();
        let (id, ran) = statements(&sql, || first(&srv));
        assert_eq!(id, DriverId(2));
        assert!(ran > 0);
        assert_eq!(statements(&sql, || first(&srv)), (DriverId(2), 0));
        // A write to another table moves nothing.
        srv.store()
            .log_lease(&asked(&q).identity(), DriverId(2), 0, 1)
            .unwrap();
        assert_eq!(statements(&sql, || first(&srv)), (DriverId(2), 0));
    }

    /// Driver 2's rule is valid on [100, 200]: its grant appears and
    /// disappears as the clock moves, with no write in between, and a
    /// request inside one window runs no grant statement.
    #[test]
    fn a_date_window_opens_and_closes_with_no_write_in_between() {
        let (srv, db, sql) = stamped();
        srv.store()
            .add_permission(&PermissionRule::any(DriverId(1)))
            .unwrap();
        srv.store()
            .add_permission(&PermissionRule::any(DriverId(2)).valid_between(Some(100), Some(200)))
            .unwrap();
        let q = request("app", "linux-x86_64");
        // (clock, driver 2 granted, grant statements run)
        let steps = [
            (0, false, 3),
            (99, false, 0),
            (100, true, 3),
            (150, true, 0),
            (200, true, 0),
            (201, false, 3),
            (10_000, false, 0),
        ];
        for (at, granted, want) in steps {
            db.clock().advance_ms(at - db.clock().now_ms());
            let (grants, ran) = statements(&sql, || srv.grants(&asked(&q)).unwrap());
            assert_eq!(grants.rule_for(DriverId(2)).is_some(), granted, "t={at}");
            assert_eq!(ran, want, "t={at}");
        }
    }

    /// However many users ask, the memo keeps at most [`MAX_IDENTITIES`]
    /// answers, and equal answers share one allocation.
    #[test]
    fn a_flood_of_distinct_users_stays_under_the_cap() {
        let mut memo = GrantMemo::default();
        memo.reset(Some(Epoch {
            drivers: 1,
            permissions: 1,
            window: 0..1,
        }));
        let answer: Permitted = Some(Arc::from(vec![(
            DriverId(1),
            PermissionRule::any(DriverId(1)),
        )]));
        let users: Vec<String> = (0..MAX_IDENTITIES + 10).map(|i| format!("u{i}")).collect();
        let who = |i: usize| [users[i].as_str(), "10.0.0.1", "orders"];
        let mut first = None;
        for i in 0..MAX_IDENTITIES + 10 {
            let kept = memo.keep_permitted(who(i), answer.as_ref().map(|a| Arc::from(a.to_vec())));
            assert!(memo.identities.len() <= MAX_IDENTITIES);
            let kept = kept.unwrap();
            let first = first.get_or_insert_with(|| kept.clone());
            assert!(Arc::ptr_eq(first, &kept), "answer {i} is not shared");
        }
        assert_eq!(memo.identities.len(), 10);
        assert!(memo.permitted(who(MAX_IDENTITIES + 9)).is_some());
        assert!(memo.permitted(who(0)).is_none());
        // Parts are packed with their lengths: moving a byte from one
        // part to the next is another identity.
        let ab = ["ab", "c", "orders"];
        let a_bc = ["a", "bc", "orders"];
        memo.keep_permitted(ab, None);
        assert_eq!(memo.permitted(ab), Some(None));
        assert_eq!(memo.permitted(a_bc), None);
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
