//! The SQL-backed driver store: the paper's Tables 1–2 as real database
//! tables, queried with the paper's statements (Sample code 1–2).
//!
//! The store is generic over *how* SQL reaches a database:
//! [`EmbeddedExec`] talks to an in-process [`MiniDb`] (in-database and
//! standalone servers), [`RemoteExec`] goes through a legacy RDBC driver
//! connection (the external server of §4.1.3).

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;

use parking_lot::Mutex;

use driverkit::Connection;
use drivolution_core::{
    ApiName, ApiVersion, BinaryFormat, ClientIdentity, DriverId, DriverQuery, DriverRecord,
    DriverVersion, DrvError, DrvResult, ExpirationPolicy, PermissionRule, RenewPolicy,
    TransferMethod,
};
use minidb::{Bind, MiniDb, Named, Params, QueryResult, RowSet, Value};

/// The table Sample code 1 reads.
const DRIVERS: &str = "information_schema.drivers";

/// The table Sample code 2 reads.
const PERMISSIONS: &str = "information_schema.driver_permission";

/// DDL for the drivers table — the paper's Table 1, verbatim columns.
pub const DRIVERS_DDL: &str = "CREATE TABLE information_schema.drivers (\
 driver_id INTEGER NOT NULL PRIMARY KEY,\
 api_name VARCHAR NOT NULL,\
 api_version_major INTEGER,\
 api_version_minor INTEGER,\
 platform VARCHAR,\
 driver_version_major INTEGER,\
 driver_version_minor INTEGER,\
 driver_version_micro INTEGER,\
 binary_code BLOB NOT NULL,\
 binary_format VARCHAR NOT NULL)";

/// DDL for the permission table — the paper's Table 2, verbatim columns.
pub const PERMISSIONS_DDL: &str = "CREATE TABLE information_schema.driver_permission (\
 user VARCHAR,\
 client_ip VARCHAR,\
 database VARCHAR,\
 driver_id INTEGER NOT NULL REFERENCES information_schema.drivers(driver_id),\
 driver_options VARCHAR,\
 start_date TIMESTAMP,\
 end_date TIMESTAMP,\
 lease_time_in_ms BIGINT,\
 renew_policy INTEGER,\
 expiration_policy INTEGER,\
 transfer_method INTEGER)";

/// DDL for the lease table, one row per binding ("Leases can be stored
/// in a table that has the same format as the distribution table",
/// §4.1.1): keyed by the (user, client_ip, database) a rule of that table
/// names, holding the binding's latest grant.
pub const LEASES_DDL: &str = "CREATE TABLE information_schema.leases (\
 user VARCHAR,\
 client_ip VARCHAR,\
 database VARCHAR,\
 driver_id INTEGER,\
 granted_at TIMESTAMP,\
 lease_time_in_ms BIGINT,\
 PRIMARY KEY (user, client_ip, database))";

/// The paper's **Sample code 1** up to its preference clauses.
const SAMPLE_CODE_1: &str = "SELECT * FROM information_schema.drivers \
     WHERE api_name LIKE $client_api_name \
     AND (platform IS NULL OR platform LIKE $client_platform \
          OR $client_platform LIKE platform) \
     AND ($client_api_major IS NULL OR api_version_major IS NULL \
          OR api_version_major = $client_api_major) \
     AND ($client_api_minor IS NULL OR api_version_minor IS NULL \
          OR api_version_minor = $client_api_minor)";

/// Executes SQL somewhere — embedded engine or remote legacy connection.
pub trait SqlExec: Send + Sync {
    /// Runs one parameterized statement.
    ///
    /// # Errors
    ///
    /// [`DrvError::Internal`] wrapping the underlying failure.
    fn exec(&self, sql: &str, params: &Params) -> DrvResult<QueryResult>;

    /// Runs one statement whose placeholders bind to `values` by name:
    /// [`exec`](Self::exec) with the same pairs in a [`Params`] map,
    /// which this default builds. An executor that binds them in place
    /// overrides it.
    ///
    /// # Errors
    ///
    /// As [`exec`](Self::exec).
    fn exec_named(&self, sql: &str, values: &[(&str, Value)]) -> DrvResult<QueryResult> {
        let params = values.iter().map(|(n, v)| (n.to_string(), v.clone()));
        self.exec(sql, &params.collect())
    }

    /// `table`'s write stamp ([`MiniDb::table_stamp`]) and the engine's
    /// `now()` in ms, when this executor can see them. While the stamps of
    /// the tables a statement reads hold, it answers as it did at the same
    /// `now()`, so the server keeps its grant answers that long. The
    /// default, `None`, keeps them for one frame.
    fn stamp(&self, _table: &str) -> Option<(u64, i64)> {
        None
    }
}

/// Direct in-process execution against a [`MiniDb`].
pub struct EmbeddedExec {
    db: Arc<MiniDb>,
}

impl std::fmt::Debug for EmbeddedExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddedExec").finish_non_exhaustive()
    }
}

impl EmbeddedExec {
    /// Wraps an embedded database.
    pub fn new(db: Arc<MiniDb>) -> Self {
        EmbeddedExec { db }
    }

    /// One statement in a fresh admin session (one that allocates
    /// nothing).
    fn run(&self, sql: &str, params: &dyn Bind) -> DrvResult<QueryResult> {
        let mut session = self.db.admin_session();
        self.db
            .execute(&mut session, sql, params)
            .map_err(|e| DrvError::Internal(format!("store: {e}")))
    }
}

impl SqlExec for EmbeddedExec {
    fn exec(&self, sql: &str, params: &Params) -> DrvResult<QueryResult> {
        self.run(sql, params)
    }

    fn exec_named(&self, sql: &str, values: &[(&str, Value)]) -> DrvResult<QueryResult> {
        self.run(sql, &Named(values))
    }

    fn stamp(&self, table: &str) -> Option<(u64, i64)> {
        Some((self.db.table_stamp(table)?, self.db.clock().now_ms() as i64))
    }
}

/// Execution through a legacy RDBC connection — the external Drivolution
/// server path (Figure 2).
pub struct RemoteExec {
    conn: Mutex<Box<dyn Connection>>,
}

impl std::fmt::Debug for RemoteExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteExec").finish_non_exhaustive()
    }
}

impl RemoteExec {
    /// Wraps a connected legacy-driver connection.
    pub fn new(conn: Box<dyn Connection>) -> Self {
        RemoteExec {
            conn: Mutex::new(conn),
        }
    }
}

impl SqlExec for RemoteExec {
    fn exec(&self, sql: &str, params: &Params) -> DrvResult<QueryResult> {
        let mut conn = self.conn.lock();
        let r = if params.is_empty() {
            conn.execute(sql)
        } else {
            conn.execute_params(sql, params)
        };
        r.map_err(|e| DrvError::Internal(format!("store (remote): {e}")))
    }
}

/// The driver store.
pub struct DriverStore {
    exec: Box<dyn SqlExec>,
    /// Whether the permission table held rules the last time
    /// [`DriverStore::permitted`] looked. Never an answer — the table can
    /// change under the store by plain SQL — only the guess that picks
    /// which of its two questions to ask first.
    had_rules: AtomicBool,
}

impl std::fmt::Debug for DriverStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriverStore").finish_non_exhaustive()
    }
}

fn opt_str(v: &Value) -> Option<String> {
    v.as_str().map(str::to_string)
}

fn opt_i64(v: &Value) -> Option<i64> {
    v.as_i64()
}

/// A Table 1 version column, `None` for NULL; a value no `i32` holds is
/// malformed, never truncated into a version.
fn opt_i32(v: &Value, column: &str) -> DrvResult<Option<i32>> {
    v.as_i64()
        .map(|n| {
            i32::try_from(n).map_err(|_| DrvError::Codec(format!("{column} {n} out of range")))
        })
        .transpose()
}

/// The write stamps of the two tables a grant reads, and the engine's
/// `now()` in ms, as one executor read them.
pub(crate) struct Stamps {
    pub(crate) drivers: u64,
    pub(crate) permissions: u64,
    pub(crate) now: i64,
}

/// A Table 2 policy column, `None` for NULL. The column is an `INTEGER`
/// an administrator may set to anything: a value that is not one of the
/// enum's codes, however wide, is malformed, never truncated into one.
fn stored_code<C: TryFrom<i64>, T>(
    v: &Value,
    column: &str,
    from_code: fn(C) -> Option<T>,
) -> DrvResult<Option<T>> {
    let Some(n) = v.as_i64() else { return Ok(None) };
    let code = C::try_from(n).ok().and_then(from_code);
    code.ok_or_else(|| DrvError::Codec(format!("unknown {column} {n}")))
        .map(Some)
}

impl DriverStore {
    /// Creates a store over an executor. Call
    /// [`DriverStore::install_schema`] once on a fresh database.
    pub fn new(exec: Box<dyn SqlExec>) -> Self {
        DriverStore {
            exec,
            had_rules: AtomicBool::new(true),
        }
    }

    /// Creates the three information-schema tables (idempotent: existing
    /// tables are left untouched).
    ///
    /// # Errors
    ///
    /// [`DrvError::Internal`] on non-"already exists" failures.
    pub fn install_schema(&self) -> DrvResult<()> {
        for ddl in [DRIVERS_DDL, PERMISSIONS_DDL, LEASES_DDL] {
            match self.exec.exec(ddl, &Params::new()) {
                Ok(_) => {}
                Err(e) if e.to_string().contains("already exists") => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Installs a driver — the paper's one-step upgrade: "simple INSERT
    /// statements".
    ///
    /// # Errors
    ///
    /// Duplicate ids or schema violations as [`DrvError::Internal`].
    pub fn add_driver(&self, rec: &DriverRecord) -> DrvResult<()> {
        let mut p = Params::new();
        p.insert("id".into(), Value::Integer(rec.id.0));
        p.insert("api".into(), Value::str(rec.api_name.as_str()));
        p.insert("vmaj".into(), Value::from(rec.api_version.major));
        p.insert("vmin".into(), Value::from(rec.api_version.minor));
        p.insert("plat".into(), Value::from(rec.platform.clone()));
        p.insert("dmaj".into(), Value::from(rec.version.map(|v| v.major)));
        p.insert("dmin".into(), Value::from(rec.version.map(|v| v.minor)));
        p.insert("dmic".into(), Value::from(rec.version.map(|v| v.micro)));
        p.insert("code".into(), Value::Blob(rec.binary.clone()));
        p.insert("fmt".into(), Value::str(rec.format.as_str()));
        self.exec.exec(
            "INSERT INTO information_schema.drivers VALUES \
             ($id, $api, $vmaj, $vmin, $plat, $dmaj, $dmin, $dmic, $code, $fmt)",
            &p,
        )?;
        Ok(())
    }

    /// Removes a driver row (permissions referencing it must be removed
    /// first; the REFERENCES constraint enforces this).
    ///
    /// # Errors
    ///
    /// Foreign-key violations as [`DrvError::Internal`].
    pub fn remove_driver(&self, id: DriverId) -> DrvResult<u64> {
        let mut p = Params::new();
        p.insert("id".into(), Value::Integer(id.0));
        self.exec
            .exec(
                "DELETE FROM information_schema.drivers WHERE driver_id = $id",
                &p,
            )?
            .affected()
            .map_err(|e| DrvError::Internal(e.to_string()))
    }

    /// Adds a permission/distribution rule.
    ///
    /// # Errors
    ///
    /// Foreign-key violations (unknown driver) as [`DrvError::Internal`].
    pub fn add_permission(&self, rule: &PermissionRule) -> DrvResult<()> {
        let mut p = Params::new();
        p.insert("user".into(), Value::from(rule.user.clone()));
        p.insert("ip".into(), Value::from(rule.client_ip.clone()));
        p.insert("db".into(), Value::from(rule.database.clone()));
        p.insert("id".into(), Value::Integer(rule.driver_id.0));
        p.insert("opts".into(), Value::from(rule.driver_options.clone()));
        p.insert(
            "start".into(),
            rule.start_date.map(Value::Timestamp).unwrap_or(Value::Null),
        );
        p.insert(
            "end".into(),
            rule.end_date.map(Value::Timestamp).unwrap_or(Value::Null),
        );
        p.insert(
            "lease".into(),
            rule.lease_time_ms.map(Value::BigInt).unwrap_or(Value::Null),
        );
        p.insert(
            "renew".into(),
            Value::Integer(i64::from(rule.renew_policy.code())),
        );
        p.insert(
            "exp".into(),
            Value::Integer(i64::from(rule.expiration_policy.code())),
        );
        p.insert(
            "xfer".into(),
            Value::Integer(i64::from(rule.transfer_method.code())),
        );
        self.exec.exec(
            "INSERT INTO information_schema.driver_permission VALUES \
             ($user, $ip, $db, $id, $opts, $start, $end, $lease, $renew, $exp, $xfer)",
            &p,
        )?;
        Ok(())
    }

    /// Deletes all permissions for a driver (step one of revocation).
    ///
    /// # Errors
    ///
    /// Store failures as [`DrvError::Internal`].
    pub fn remove_permissions(&self, id: DriverId) -> DrvResult<u64> {
        let mut p = Params::new();
        p.insert("id".into(), Value::Integer(id.0));
        self.exec
            .exec(
                "DELETE FROM information_schema.driver_permission WHERE driver_id = $id",
                &p,
            )?
            .affected()
            .map_err(|e| DrvError::Internal(e.to_string()))
    }

    /// Expires a driver by setting `end_date` to now on its rules — the
    /// paper's "setting the end_date to the current_date" (§4.1.1) and
    /// the master/slave failover trigger (Figure 4, "marking the DBmaster
    /// driver as expired").
    ///
    /// # Errors
    ///
    /// Store failures as [`DrvError::Internal`].
    pub fn expire_driver(&self, id: DriverId, now_ms: i64) -> DrvResult<u64> {
        let mut p = Params::new();
        p.insert("id".into(), Value::Integer(id.0));
        p.insert("now".into(), Value::Timestamp(now_ms));
        self.exec
            .exec(
                "UPDATE information_schema.driver_permission \
                 SET start_date = 0, end_date = $now WHERE driver_id = $id",
                &p,
            )?
            .affected()
            .map_err(|e| DrvError::Internal(e.to_string()))
    }

    fn row_to_record(row: &[Value]) -> DrvResult<DriverRecord> {
        let api_version = ApiVersion {
            major: opt_i32(&row[2], "api_version_major")?,
            minor: opt_i32(&row[3], "api_version_minor")?,
        };
        let version = match (
            opt_i32(&row[5], "driver_version_major")?,
            opt_i32(&row[6], "driver_version_minor")?,
            opt_i32(&row[7], "driver_version_micro")?,
        ) {
            (Some(ma), mi, mc) => Some(DriverVersion::new(ma, mi.unwrap_or(0), mc.unwrap_or(0))),
            _ => None,
        };
        Ok(DriverRecord {
            id: DriverId(
                row[0].as_i64().ok_or_else(|| {
                    DrvError::Internal("drivers.driver_id is not an integer".into())
                })?,
            ),
            api_name: ApiName::new(row[1].as_str().unwrap_or_default()),
            api_version,
            platform: opt_str(&row[4]),
            version,
            format: BinaryFormat::parse(row[9].as_str().unwrap_or_default())?,
            // Shared handle onto the stored blob: every renewal re-reads
            // the driver row, so this must not copy the binary.
            binary: row[8].as_blob_shared().unwrap_or_default(),
        })
    }

    fn row_to_rule(row: &[Value]) -> DrvResult<PermissionRule> {
        Ok(PermissionRule {
            user: opt_str(&row[0]),
            client_ip: opt_str(&row[1]),
            database: opt_str(&row[2]),
            driver_id: DriverId(row[3].as_i64().unwrap_or(0)),
            driver_options: opt_str(&row[4]),
            start_date: opt_i64(&row[5]),
            end_date: opt_i64(&row[6]),
            lease_time_ms: opt_i64(&row[7]),
            renew_policy: stored_code(&row[8], "renew_policy", RenewPolicy::from_code)?
                .unwrap_or_default(),
            expiration_policy: stored_code(
                &row[9],
                "expiration_policy",
                ExpirationPolicy::from_code,
            )?
            .unwrap_or_default(),
            transfer_method: stored_code(&row[10], "transfer_method", TransferMethod::from_code)?
                .unwrap_or(TransferMethod::Any),
        })
    }

    /// Fetches one driver row by id.
    ///
    /// # Errors
    ///
    /// [`DrvError::NoMatchingDriver`] when absent.
    pub fn record(&self, id: DriverId) -> DrvResult<DriverRecord> {
        let mut p = Params::new();
        p.insert("id".into(), Value::Integer(id.0));
        let rows = self.select(
            "SELECT * FROM information_schema.drivers WHERE driver_id = $id",
            &p,
        )?;
        let row = rows
            .rows
            .first()
            .ok_or_else(|| DrvError::NoMatchingDriver(format!("driver {id} not found")))?;
        Self::row_to_record(row)
    }

    /// All driver rows, ordered by id.
    ///
    /// # Errors
    ///
    /// Store failures as [`DrvError::Internal`].
    pub fn records(&self) -> DrvResult<Vec<DriverRecord>> {
        let rows = self.select(
            "SELECT * FROM information_schema.drivers ORDER BY driver_id",
            &Params::new(),
        )?;
        rows.rows.iter().map(|r| Self::row_to_record(r)).collect()
    }

    /// All permission rules, in insertion order.
    ///
    /// # Errors
    ///
    /// Store failures as [`DrvError::Internal`].
    pub fn rules(&self) -> DrvResult<Vec<PermissionRule>> {
        let rows = self.select(
            "SELECT * FROM information_schema.driver_permission",
            &Params::new(),
        )?;
        rows.rows.iter().map(|r| Self::row_to_rule(r)).collect()
    }

    /// Whether any permission rules exist (if none, the server acts as an
    /// open distribution point, Sample code 1 only).
    ///
    /// # Errors
    ///
    /// Store failures as [`DrvError::Internal`].
    fn has_rules(&self) -> DrvResult<bool> {
        Ok(self.count("SELECT count(*) FROM information_schema.driver_permission")? > 0)
    }

    /// The permitted driver ids for a client — the paper's **Sample
    /// code 2**, executed as real SQL.
    ///
    /// # Errors
    ///
    /// Store failures as [`DrvError::Internal`].
    pub fn permitted_driver_ids(
        &self,
        who: &ClientIdentity,
    ) -> DrvResult<Vec<(DriverId, PermissionRule)>> {
        let mut p = Params::new();
        p.insert("user_database".into(), Value::str(who.database.clone()));
        p.insert("client_user".into(), Value::str(who.user.clone()));
        p.insert("client_client_ip".into(), Value::str(who.client_ip.clone()));
        let rows = self.select(
            "SELECT * FROM information_schema.driver_permission \
             WHERE (database IS NULL OR $user_database LIKE database) \
             AND (user IS NULL OR $client_user LIKE user) \
             AND (client_ip IS NULL OR $client_client_ip LIKE client_ip) \
             AND (start_date IS NULL OR end_date IS NULL \
                  OR now() BETWEEN start_date AND end_date)",
            &p,
        )?;
        rows.rows
            .iter()
            .map(|r| Self::row_to_rule(r).map(|rule| (rule.driver_id, rule)))
            .collect()
    }

    /// What the permission table says about a client: its Sample code 2
    /// rows, or `None` when the table is empty (an open distribution
    /// point, where Sample code 1 alone decides).
    ///
    /// Two questions settle that — "which rules match?" and "are there
    /// rules at all?" — and asked in the right order the first answer
    /// makes the second unnecessary: a matching rule proves there are
    /// rules, and an empty table matches nobody. The order follows what
    /// the table looked like last time, so a request costs one statement
    /// here whether the server restricts its drivers or not, and two only
    /// for a client no rule matches or right after the table was filled
    /// or emptied. Either order gives the same answer.
    ///
    /// # Errors
    ///
    /// Store failures as [`DrvError::Internal`].
    pub fn permitted(
        &self,
        who: &ClientIdentity,
    ) -> DrvResult<Option<Vec<(DriverId, PermissionRule)>>> {
        let permitted = if self.had_rules.load(Relaxed) {
            let rows = self.permitted_driver_ids(who)?;
            (!rows.is_empty() || self.has_rules()?).then_some(rows)
        } else if self.has_rules()? {
            Some(self.permitted_driver_ids(who)?)
        } else {
            None
        };
        self.had_rules.store(permitted.is_some(), Relaxed);
        Ok(permitted)
    }

    /// The executor's [`Stamps`], `None` when it reports none.
    pub(crate) fn stamps(&self) -> Option<Stamps> {
        let (drivers, now) = self.exec.stamp(DRIVERS)?;
        let (permissions, _) = self.exec.stamp(PERMISSIONS)?;
        Some(Stamps {
            drivers,
            permissions,
            now,
        })
    }

    /// The half-open interval around `now` in which no rule's `now()
    /// BETWEEN start_date AND end_date` (Sample code 2) changes value:
    /// bounded by the nearest `start_date` at or before `now` and the
    /// nearest `start_date` or `end_date + 1` after it, over the rules
    /// with both dates set. A date that is not a number pins the interval
    /// to `now` alone.
    ///
    /// # Errors
    ///
    /// Store failures as [`DrvError::Internal`].
    pub(crate) fn rule_window(&self, now: i64) -> DrvResult<Range<i64>> {
        let rows = self.select(
            "SELECT start_date, end_date FROM information_schema.driver_permission \
             WHERE start_date IS NOT NULL AND end_date IS NOT NULL",
            &Params::new(),
        )?;
        let mut window = i64::MIN..i64::MAX;
        for row in &rows.rows {
            let edges = match row.as_slice() {
                [start, end] => start.as_i64().zip(end.as_i64()),
                _ => None,
            };
            let (start, end) = edges.unwrap_or((now, now));
            for edge in [start, end.saturating_add(1)] {
                if edge <= now {
                    window.start = window.start.max(edge);
                } else {
                    window.end = window.end.min(edge);
                }
            }
        }
        Ok(window)
    }

    /// Drivers matching the client's API/platform and preferences — the
    /// paper's **Sample code 1**, executed as real SQL, with the paper's
    /// retry-without-preferences fallback.
    ///
    /// # Errors
    ///
    /// Store failures as [`DrvError::Internal`].
    pub fn matching_drivers(&self, q: &DriverQuery) -> DrvResult<Vec<DriverRecord>> {
        let mut p = Params::new();
        p.insert(
            "client_api_name".into(),
            Value::str(q.api_name.to_ascii_uppercase()),
        );
        p.insert(
            "client_platform".into(),
            Value::str(q.client_platform.clone()),
        );
        p.insert(
            "client_api_major".into(),
            Value::from(q.api_version.and_then(|v| v.major)),
        );
        p.insert(
            "client_api_minor".into(),
            Value::from(q.api_version.and_then(|v| v.minor)),
        );
        // With preferences first…
        let mut with_pref = String::from(SAMPLE_CODE_1);
        if let Some(format) = q.preferred_format {
            p.insert("client_format".into(), Value::str(format.as_str()));
            with_pref.push_str(" AND binary_format LIKE $client_format");
        }
        if let Some(v) = q.preferred_version {
            p.insert("client_dmaj".into(), Value::from(v.major));
            p.insert("client_dmin".into(), Value::from(v.minor));
            p.insert("client_dmic".into(), Value::from(v.micro));
            with_pref.push_str(
                " AND (driver_version_major IS NULL OR (driver_version_major = $client_dmaj \
                 AND driver_version_minor = $client_dmin \
                 AND driver_version_micro = $client_dmic))",
            );
        }
        let preferred = q.preferred_format.is_some() || q.preferred_version.is_some();
        with_pref.push_str(" ORDER BY driver_id");
        let rows = self.select(&with_pref, &p)?;
        let rows = if rows.rows.is_empty() && preferred {
            // "If this statement is unsuccessful, a simple SELECT without
            // preferences can be issued." (§4.1.1), when it had some.
            self.select(&format!("{SAMPLE_CODE_1} ORDER BY driver_id"), &p)?
        } else {
            rows
        };
        rows.rows.iter().map(|r| Self::row_to_record(r)).collect()
    }

    /// Records a granted lease in its binding's row (§4.1.1: "used only
    /// for logging purposes, but also to retrieve client information when
    /// a lease must be renewed").
    ///
    /// # Errors
    ///
    /// Store failures as [`DrvError::Internal`].
    pub fn log_lease(
        &self,
        who: &ClientIdentity,
        driver: DriverId,
        granted_at_ms: i64,
        lease_ms: i64,
    ) -> DrvResult<()> {
        let who = [&*who.user, &*who.client_ip, &*who.database];
        self.log_lease_of(who, driver, granted_at_ms, lease_ms)
    }

    /// [`log_lease`](Self::log_lease) for the identity's parts: user,
    /// client host, database. One `INSERT OR REPLACE`: the binding's row,
    /// found through the table's key, takes the grant in place, and only
    /// a binding with no row yet inserts one.
    pub(crate) fn log_lease_of(
        &self,
        [user, client_ip, database]: [&str; 3],
        driver: DriverId,
        granted_at_ms: i64,
        lease_ms: i64,
    ) -> DrvResult<()> {
        self.exec.exec_named(
            "INSERT OR REPLACE INTO information_schema.leases \
             VALUES ($user, $ip, $db, $id, $at, $ms)",
            &[
                ("user", Value::str(user)),
                ("ip", Value::str(client_ip)),
                ("db", Value::str(database)),
                ("id", Value::Integer(driver.0)),
                ("at", Value::Timestamp(granted_at_ms)),
                ("ms", Value::BigInt(lease_ms)),
            ],
        )?;
        Ok(())
    }

    /// Number of lease-table rows, one per binding ever granted (for
    /// tests and reports).
    ///
    /// # Errors
    ///
    /// Store failures as [`DrvError::Internal`].
    pub fn lease_count(&self) -> DrvResult<i64> {
        self.count("SELECT count(*) FROM information_schema.leases")
    }

    /// Runs a `SELECT count(*)`. The executor may be a remote connection,
    /// so the result's shape is checked, not assumed.
    fn count(&self, sql: &str) -> DrvResult<i64> {
        let rows = self.select(sql, &Params::new())?;
        let n = rows
            .scalar()
            .map_err(|e| DrvError::Internal(format!("store: {sql}: {e}")))?;
        Ok(n.as_i64().unwrap_or(0))
    }

    fn select(&self, sql: &str, params: &Params) -> DrvResult<RowSet> {
        self.exec
            .exec(sql, params)?
            .rows()
            .map_err(|e| DrvError::Internal(e.to_string()))
    }
}

/// A statement-counting executor for the crate's tests.
#[cfg(test)]
pub(crate) mod counting {
    use std::sync::atomic::AtomicU64;

    use super::*;

    /// Statements run so far: all of them, and Sample code 1 (with or
    /// without preferences) apart.
    #[derive(Default)]
    pub(crate) struct SqlCounts {
        pub(crate) all: AtomicU64,
        pub(crate) sample_code_1: AtomicU64,
    }

    /// Counts every statement; forwards the engine's stamps when `.2`.
    struct CountingExec(EmbeddedExec, Arc<SqlCounts>, bool);

    impl SqlExec for CountingExec {
        fn exec(&self, sql: &str, params: &Params) -> DrvResult<QueryResult> {
            self.1.all.fetch_add(1, Relaxed);
            if sql.starts_with(SAMPLE_CODE_1) {
                self.1.sample_code_1.fetch_add(1, Relaxed);
            }
            self.0.exec(sql, params)
        }

        fn stamp(&self, table: &str) -> Option<(u64, i64)> {
            self.0.stamp(table).filter(|_| self.2)
        }
    }

    /// A store over `db`, schema installed, and its counts (zero). It
    /// reports no stamps: the server keeps its grant answers one frame.
    pub(crate) fn store(db: Arc<MiniDb>) -> (DriverStore, Arc<SqlCounts>) {
        with_stamps(db, false)
    }

    /// [`store`], reporting the engine's stamps when `stamps`.
    pub(crate) fn with_stamps(db: Arc<MiniDb>, stamps: bool) -> (DriverStore, Arc<SqlCounts>) {
        let counts = Arc::new(SqlCounts::default());
        let store = DriverStore::new(Box::new(CountingExec(
            EmbeddedExec::new(db),
            counts.clone(),
            stamps,
        )));
        store.install_schema().unwrap();
        counts.all.store(0, Relaxed);
        (store, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use drivolution_core::matching;
    use netsim::Clock;

    fn store_with_clock(clock: Clock) -> DriverStore {
        let db = Arc::new(MiniDb::with_clock("drvstore", clock));
        let s = DriverStore::new(Box::new(EmbeddedExec::new(db)));
        s.install_schema().unwrap();
        s
    }

    fn store() -> DriverStore {
        store_with_clock(Clock::simulated())
    }

    fn rec(id: i64) -> DriverRecord {
        DriverRecord::new(
            DriverId(id),
            ApiName::rdbc(),
            BinaryFormat::Djar,
            Bytes::from(vec![id as u8; 16]),
        )
    }

    fn query(user: &str) -> DriverQuery {
        DriverQuery::new(
            ClientIdentity::new(user, "10.0.0.1", "orders"),
            "RDBC",
            "linux-x86_64",
        )
    }

    /// An executor that answers every statement with an empty result
    /// set — what a broken or hostile remote end could send.
    struct EmptyExec;

    impl SqlExec for EmptyExec {
        fn exec(&self, _sql: &str, _params: &Params) -> DrvResult<QueryResult> {
            Ok(QueryResult::Rows(RowSet {
                columns: Vec::new(),
                rows: Vec::new(),
            }))
        }
    }

    #[test]
    fn counts_reject_an_empty_result_instead_of_indexing_it() {
        let s = DriverStore::new(Box::new(EmptyExec));
        assert!(matches!(s.has_rules(), Err(DrvError::Internal(_))));
        assert!(matches!(s.lease_count(), Err(DrvError::Internal(_))));
    }

    #[test]
    fn schema_installs_idempotently() {
        let s = store();
        s.install_schema().unwrap();
    }

    #[test]
    fn add_and_fetch_driver_roundtrip() {
        let s = store();
        let r = rec(1)
            .with_platform("linux-%")
            .with_version(DriverVersion::new(1, 2, 3))
            .with_api_version(ApiVersion::exact(1, 0));
        s.add_driver(&r).unwrap();
        let back = s.record(DriverId(1)).unwrap();
        assert_eq!(back, r);
        assert!(s.record(DriverId(9)).is_err());
        assert_eq!(s.records().unwrap().len(), 1);
    }

    #[test]
    fn duplicate_driver_id_rejected() {
        let s = store();
        s.add_driver(&rec(1)).unwrap();
        assert!(s.add_driver(&rec(1)).is_err());
    }

    #[test]
    fn permissions_enforce_foreign_key() {
        let s = store();
        let rule = PermissionRule::any(DriverId(5));
        assert!(s.add_permission(&rule).is_err());
        s.add_driver(&rec(5)).unwrap();
        s.add_permission(&rule).unwrap();
        // Driver with live permissions cannot be deleted.
        assert!(s.remove_driver(DriverId(5)).is_err());
        s.remove_permissions(DriverId(5)).unwrap();
        assert_eq!(s.remove_driver(DriverId(5)).unwrap(), 1);
    }

    #[test]
    fn sample_code_2_runs_as_sql() {
        let s = store();
        s.add_driver(&rec(1)).unwrap();
        s.add_driver(&rec(2)).unwrap();
        s.add_permission(&PermissionRule::any(DriverId(1)).for_user("dba%"))
            .unwrap();
        s.add_permission(&PermissionRule::any(DriverId(2)).for_database("orders"))
            .unwrap();
        let who = ClientIdentity::new("dba7", "10.0.0.1", "orders");
        let ids: Vec<i64> = s
            .permitted_driver_ids(&who)
            .unwrap()
            .into_iter()
            .map(|(id, _)| id.0)
            .collect();
        assert_eq!(ids, vec![1, 2]);
        let who = ClientIdentity::new("app", "10.0.0.1", "hr");
        let ids = s.permitted_driver_ids(&who).unwrap();
        assert!(ids.is_empty());
    }

    #[test]
    fn date_windows_in_sql_follow_the_clock() {
        let clock = Clock::simulated();
        let s = store_with_clock(clock.clone());
        s.add_driver(&rec(1)).unwrap();
        s.add_permission(&PermissionRule::any(DriverId(1)).valid_between(Some(100), Some(200)))
            .unwrap();
        let who = ClientIdentity::new("u", "h", "orders");
        assert!(s.permitted_driver_ids(&who).unwrap().is_empty()); // t=0
        clock.advance_ms(150);
        assert_eq!(s.permitted_driver_ids(&who).unwrap().len(), 1);
        clock.advance_ms(100); // t=250
        assert!(s.permitted_driver_ids(&who).unwrap().is_empty());
    }

    #[test]
    fn expire_driver_closes_the_window() {
        let clock = Clock::simulated();
        let s = store_with_clock(clock.clone());
        s.add_driver(&rec(1)).unwrap();
        s.add_permission(&PermissionRule::any(DriverId(1))).unwrap();
        let who = ClientIdentity::new("u", "h", "orders");
        clock.advance_ms(500);
        assert_eq!(s.permitted_driver_ids(&who).unwrap().len(), 1);
        s.expire_driver(DriverId(1), clock.now_ms() as i64 - 1)
            .unwrap();
        assert!(s.permitted_driver_ids(&who).unwrap().is_empty());
    }

    #[test]
    fn sample_code_1_runs_as_sql_with_fallback() {
        let s = store();
        s.add_driver(&rec(1).with_version(DriverVersion::new(1, 0, 0)))
            .unwrap();
        s.add_driver(
            &rec(2)
                .with_platform("windows-%")
                .with_version(DriverVersion::new(2, 0, 0)),
        )
        .unwrap();
        // Platform filter: linux client sees driver 1 only.
        let found = s.matching_drivers(&query("app")).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].id, DriverId(1));
        // Version preference satisfied.
        let mut q = query("app");
        q.preferred_version = Some(DriverVersion::new(1, 0, 0));
        assert_eq!(s.matching_drivers(&q).unwrap()[0].id, DriverId(1));
        // Unsatisfiable preference falls back to the plain statement.
        q.preferred_version = Some(DriverVersion::new(9, 9, 9));
        assert_eq!(s.matching_drivers(&q).unwrap()[0].id, DriverId(1));
    }

    #[test]
    fn sql_and_memory_matchmaking_agree() {
        let s = store();
        let records = vec![
            rec(1).with_platform("linux-%"),
            rec(2).with_platform("windows-%"),
            rec(3),
        ];
        for r in &records {
            s.add_driver(r).unwrap();
        }
        let rules = vec![
            PermissionRule::any(DriverId(1)).for_user("app%"),
            PermissionRule::any(DriverId(3)).for_user("dba%"),
        ];
        for r in &rules {
            s.add_permission(r).unwrap();
        }
        for user in ["app1", "dba1", "other"] {
            let q = query(user);
            // SQL path.
            let sql_ids: Vec<i64> = {
                let permitted = s.permitted_driver_ids(&q.identity).unwrap();
                s.matching_drivers(&q)
                    .unwrap()
                    .into_iter()
                    .filter(|r| permitted.iter().any(|(id, _)| *id == r.id))
                    .map(|r| r.id.0)
                    .collect()
            };
            // Memory path.
            let mem_ids: Vec<i64> = matching::candidates(&records, &rules, &q, 0)
                .into_iter()
                .map(|m| m.record.id.0)
                .collect();
            assert_eq!(sql_ids, mem_ids, "disagreement for user {user}");
        }
    }

    #[test]
    fn a_stored_policy_code_out_of_range_is_an_error_not_a_truncation() {
        let s = store();
        s.add_driver(&rec(1)).unwrap();
        // 2^32 + 1 truncated to 32 bits is 1 (UPGRADE).
        for column in ["renew_policy", "expiration_policy", "transfer_method"] {
            s.remove_permissions(DriverId(1)).unwrap();
            s.add_permission(&PermissionRule::any(DriverId(1))).unwrap();
            s.exec
                .exec(
                    &format!(
                        "UPDATE information_schema.driver_permission SET {column} = 4294967297"
                    ),
                    &Params::new(),
                )
                .unwrap();
            assert!(
                matches!(s.rules(), Err(DrvError::Codec(m)) if m.contains(column)),
                "{column}"
            );
        }
        // NULL keeps the defaults.
        s.exec
            .exec(
                "UPDATE information_schema.driver_permission \
                 SET renew_policy = NULL, expiration_policy = NULL, transfer_method = NULL",
                &Params::new(),
            )
            .unwrap();
        let rule = &s.rules().unwrap()[0];
        assert_eq!(rule.renew_policy, RenewPolicy::Renew);
        assert_eq!(rule.expiration_policy, ExpirationPolicy::AfterClose);
        assert_eq!(rule.transfer_method, TransferMethod::Any);
    }

    #[test]
    fn a_stored_version_out_of_range_is_an_error_not_a_truncation() {
        let s = store();
        s.add_driver(&rec(1).with_version(DriverVersion::new(1, 0, 0)))
            .unwrap();
        // 2^32 + 2 truncated to 32 bits is 2.
        for column in [
            "api_version_major",
            "api_version_minor",
            "driver_version_major",
            "driver_version_minor",
            "driver_version_micro",
        ] {
            let set = |v: &str| {
                s.exec
                    .exec(
                        &format!("UPDATE information_schema.drivers SET {column} = {v}"),
                        &Params::new(),
                    )
                    .unwrap();
            };
            set("4294967298");
            assert!(
                matches!(s.record(DriverId(1)), Err(DrvError::Codec(m)) if m.contains(column)),
                "{column}"
            );
            assert!(s.matching_drivers(&query("app")).is_err(), "{column}");
            set("-2147483648");
            assert!(s.record(DriverId(1)).is_ok(), "{column}");
            set("1");
        }
    }

    #[test]
    fn lease_logging() {
        let s = store();
        s.add_driver(&rec(1)).unwrap();
        s.add_driver(&rec(2)).unwrap();
        let who = ClientIdentity::new("u", "h", "orders");
        assert_eq!(s.lease_count().unwrap(), 0);
        s.log_lease(&who, DriverId(1), 0, 3_600_000).unwrap();
        s.log_lease(&who, DriverId(2), 10, 60_000).unwrap();
        // One row per binding, holding its latest grant; another binding
        // gets its own.
        assert_eq!(s.lease_count().unwrap(), 1);
        s.log_lease(
            &ClientIdentity::new("u", "h2", "orders"),
            DriverId(1),
            20,
            1,
        )
        .unwrap();
        assert_eq!(s.lease_count().unwrap(), 2);
        let rows = s
            .select(
                "SELECT driver_id, granted_at, lease_time_in_ms FROM information_schema.leases \
                 WHERE client_ip = 'h'",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(
            rows.rows,
            vec![vec![
                Value::Integer(2),
                Value::Timestamp(10),
                Value::BigInt(60_000)
            ]]
        );
    }

    #[test]
    fn remote_exec_path_works_end_to_end() {
        use driverkit::{legacy_driver, ConnectProps, DbUrl};
        use minidb::wire::DbServer;
        use netsim::{Addr, Network};

        let net = Network::new();
        let db = Arc::new(MiniDb::with_clock("legacy", net.clock().clone()));
        net.bind_arc(Addr::new("db", 5432), Arc::new(DbServer::new(db)))
            .unwrap();
        // The external server connects via a v2 legacy driver (params
        // require protocol v2).
        let d = legacy_driver(&net, &Addr::new("drvsrv", 1), 2).unwrap();
        let conn = d
            .connect(
                &DbUrl::direct(Addr::new("db", 5432), "legacy"),
                &ConnectProps::user("admin", "admin"),
            )
            .unwrap();
        let s = DriverStore::new(Box::new(RemoteExec::new(conn)));
        s.install_schema().unwrap();
        s.add_driver(&rec(1)).unwrap();
        assert_eq!(s.records().unwrap().len(), 1);
        assert_eq!(s.record(DriverId(1)).unwrap().binary.len(), 16);
    }
}
