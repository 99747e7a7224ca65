//! The embedded database engine: sessions, transactions, and the
//! virtual `information_schema`.

use std::borrow::Cow;

use parking_lot::Mutex;

use netsim::Clock;

use crate::auth::AuthStore;
use crate::error::{DbError, DbResult};
use crate::exec::exec::{exec_select, execute_statement, QueryResult};
use crate::exec::expr::{Bind, Params};
use crate::schema::{Column, TableSchema};
use crate::sql::ast::{Expr, SelectItem, Statement};
use crate::sql::parser::parse;
use crate::storage::{Catalog, FoldState, UndoRecord};
use crate::value::{DataType, Value};

/// A client session: identity, temporary tables, and transaction state.
///
/// Sessions are created by [`MiniDb::session`] and passed to
/// [`MiniDb::execute`]. They are intentionally detached from the engine so
/// the wire server can own them per connection.
#[derive(Debug)]
pub struct Session {
    user: Cow<'static, str>,
    temp: Catalog,
    undo: Option<Vec<UndoRecord>>,
}

impl Session {
    /// A session named by a `&'static str` (the admin's) allocates
    /// nothing until it holds a temporary table or an open transaction.
    fn new(user: impl Into<Cow<'static, str>>) -> Self {
        Session {
            user: user.into(),
            temp: Catalog::new(),
            undo: None,
        }
    }

    /// The authenticated user.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// Whether an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.undo.is_some()
    }
}

struct DbInner {
    catalog: Catalog,
    auth: AuthStore,
    /// Parse cache: statement text → parsed AST. Parsing is pure (params
    /// bind at execution), so entries never go stale.
    stmts: std::collections::HashMap<String, std::sync::Arc<Statement>, FoldState>,
}

/// Upper bound on cached parsed statements. Only texts that can recur
/// are cached ([`recurs`]), and applications issue a fixed set of those,
/// so the cache stays tiny; the bound only guards against unbounded
/// growth under generated SQL (flushed wholesale when hit — no recency
/// tracking to keep behavior deterministic).
const STMT_CACHE_CAP: usize = 256;

/// Whether a statement's text can come back with different data: it
/// binds a placeholder, or spells out no value at all (`BEGIN`,
/// `SELECT count(*) FROM t`). A text with literals and no placeholder
/// (`INSERT INTO orders VALUES (30000017, 4, 'new')`) carries its data
/// in the text — the next execution is a different text — so caching it
/// buys nothing, and a stream of them used to fill the cache and flush
/// every statement worth keeping with it.
fn recurs(stmt: &Statement) -> bool {
    // (binds a placeholder, spells out a literal) anywhere under `e`.
    fn scan(e: &Expr, seen: &mut (bool, bool)) {
        match e {
            Expr::Param(_) => seen.0 = true,
            Expr::Literal(_) => seen.1 = true,
            Expr::Column(_) => {}
            Expr::Not(a) | Expr::Neg(a) | Expr::IsNull { expr: a, .. } => scan(a, seen),
            Expr::Binary { lhs: a, rhs: b, .. }
            | Expr::Like {
                expr: a,
                pattern: b,
                ..
            } => {
                scan(a, seen);
                scan(b, seen);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                scan(expr, seen);
                scan(low, seen);
                scan(high, seen);
            }
            Expr::Func { args, .. } => args.iter().for_each(|e| scan(e, seen)),
        }
    }
    let mut seen = (false, false);
    let mut each = |e: &Expr| scan(e, &mut seen);
    match stmt {
        Statement::Insert { rows, .. } => rows.iter().flatten().for_each(each),
        Statement::Select(s) => {
            for item in &s.items {
                if let SelectItem::Expr { expr, .. } = item {
                    each(expr);
                }
            }
            s.filter.iter().for_each(&mut each);
            s.order_by.iter().for_each(|(e, _)| each(e));
        }
        Statement::Update { sets, filter, .. } => {
            sets.iter().for_each(|(_, e)| each(e));
            filter.iter().for_each(each);
        }
        Statement::Delete { filter, .. } => filter.iter().for_each(each),
        _ => {}
    }
    let (param, literal) = seen;
    param || !literal
}

/// An embedded single-database engine instance.
///
/// One `MiniDb` models one DBMS instance of the paper (a MySQL or
/// PostgreSQL server, a Sequoia backend replica, or the embedded store of a
/// standalone Drivolution server).
///
/// # Examples
///
/// ```
/// use minidb::{MiniDb, Params};
///
/// let db = MiniDb::new("inventory");
/// let mut session = db.admin_session();
/// db.exec(&mut session, "CREATE TABLE parts (id INTEGER PRIMARY KEY, name VARCHAR)")?;
/// db.exec(&mut session, "INSERT INTO parts VALUES (1, 'bolt')")?;
/// let rows = db.exec(&mut session, "SELECT name FROM parts")?.rows()?;
/// assert_eq!(rows.rows[0][0], minidb::Value::from("bolt"));
/// # Ok::<(), minidb::DbError>(())
/// ```
pub struct MiniDb {
    name: String,
    clock: Clock,
    inner: Mutex<DbInner>,
}

impl std::fmt::Debug for MiniDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiniDb").field("name", &self.name).finish()
    }
}

impl MiniDb {
    /// Creates a database with a fresh simulated clock and an
    /// `admin`/`admin` superuser.
    pub fn new(name: impl Into<String>) -> Self {
        MiniDb::with_clock(name, Clock::simulated())
    }

    /// Creates a database sharing `clock` (typically the network's clock).
    pub fn with_clock(name: impl Into<String>, clock: Clock) -> Self {
        MiniDb {
            name: name.into(),
            clock,
            inner: Mutex::new(DbInner {
                catalog: Catalog::new(),
                auth: AuthStore::new("admin", "admin"),
                stmts: std::collections::HashMap::default(),
            }),
        }
    }

    /// The database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The engine clock (drives `now()`).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Runs `f` with mutable access to the authentication store
    /// (users, accepted methods, realm secret).
    pub fn with_auth<R>(&self, f: impl FnOnce(&mut AuthStore) -> R) -> R {
        f(&mut self.inner.lock().auth)
    }

    /// Opens a session for an existing user.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchUser`] when the user is not registered.
    pub fn session(&self, user: &str) -> DbResult<Session> {
        if !self.inner.lock().auth.has_user(user) {
            return Err(DbError::NoSuchUser(user.to_string()));
        }
        Ok(Session::new(user.to_string()))
    }

    /// Opens a session for the built-in administrator.
    pub fn admin_session(&self) -> Session {
        Session::new("admin")
    }

    /// Parses and executes one statement without parameters.
    ///
    /// # Errors
    ///
    /// Any [`DbError`] from parsing or execution.
    pub fn exec(&self, session: &mut Session, sql: &str) -> DbResult<QueryResult> {
        self.execute(session, sql, &Params::new())
    }

    /// Parses and executes one statement with bound parameters.
    ///
    /// # Errors
    ///
    /// Any [`DbError`] from parsing or execution.
    pub fn execute(
        &self,
        session: &mut Session,
        sql: &str,
        params: &dyn Bind,
    ) -> DbResult<QueryResult> {
        let cached = self.inner.lock().stmts.get(sql).cloned();
        let stmt = match cached {
            Some(stmt) => stmt,
            None => {
                let stmt = parse(sql)?;
                if !recurs(&stmt) {
                    return self.execute_stmt(session, &stmt, params);
                }
                let stmt = std::sync::Arc::new(stmt);
                let cache = &mut self.inner.lock().stmts;
                if cache.len() >= STMT_CACHE_CAP {
                    cache.clear();
                }
                cache.insert(sql.to_string(), stmt.clone());
                stmt
            }
        };
        self.execute_stmt(session, &stmt, params)
    }

    /// Executes an already-parsed statement.
    ///
    /// # Errors
    ///
    /// Any [`DbError`] from execution.
    fn execute_stmt(
        &self,
        session: &mut Session,
        stmt: &Statement,
        params: &dyn Bind,
    ) -> DbResult<QueryResult> {
        let mut inner = self.inner.lock();
        let now_ms = self.clock.now_ms() as i64;
        match stmt {
            Statement::Begin => {
                if session.undo.is_some() {
                    return Err(DbError::Txn("transaction already open".into()));
                }
                session.undo = Some(Vec::new());
                Ok(QueryResult::Affected(0))
            }
            Statement::Commit => {
                if session.undo.take().is_none() {
                    return Err(DbError::Txn("no open transaction".into()));
                }
                Ok(QueryResult::Affected(0))
            }
            Statement::Rollback => {
                let Some(log) = session.undo.take() else {
                    return Err(DbError::Txn("no open transaction".into()));
                };
                for rec in log.into_iter().rev() {
                    inner.catalog.apply_undo(rec);
                }
                Ok(QueryResult::Affected(0))
            }
            Statement::Select(s) => {
                let from = s.from.as_deref().unwrap_or_default();
                // A session's temporary tables shadow the catalog's, and
                // virtual information-schema tables are synthesized on
                // demand unless a real table shadows them.
                if session.temp.has_table(from) {
                    return exec_select(&session.temp, s, params, now_ms).map(QueryResult::Rows);
                }
                if (from.eq_ignore_ascii_case("information_schema.tables")
                    || from.eq_ignore_ascii_case("information_schema.columns"))
                    && !inner.catalog.has_table(from)
                {
                    let virtual_catalog = self.build_info_schema(&inner.catalog)?;
                    return exec_select(&virtual_catalog, s, params, now_ms).map(QueryResult::Rows);
                }
                exec_select(&inner.catalog, s, params, now_ms).map(QueryResult::Rows)
            }
            other => {
                // DML/DDL on a temporary table stays in the session and
                // bypasses the undo log.
                let temp = match other {
                    Statement::CreateTable {
                        name, temporary, ..
                    } => {
                        if !temporary && session.temp.has_table(name) {
                            return Err(DbError::TableExists(format!("{name} (temporary)")));
                        }
                        *temporary
                    }
                    Statement::Insert { table, .. }
                    | Statement::Update { table, .. }
                    | Statement::Delete { table, .. } => session.temp.has_table(table),
                    _ => false,
                };
                if temp {
                    return execute_statement(&mut session.temp, other, params, now_ms, None);
                }
                execute_statement(
                    &mut inner.catalog,
                    other,
                    params,
                    now_ms,
                    session.undo.as_mut(),
                )
            }
        }
    }

    fn build_info_schema(&self, catalog: &Catalog) -> DbResult<Catalog> {
        let mut virt = Catalog::new();
        virt.create_table(TableSchema::new(
            "information_schema.tables",
            vec![
                Column::new("table_name", DataType::Varchar).not_null(),
                Column::new("column_count", DataType::Integer).not_null(),
                Column::new("row_count", DataType::BigInt).not_null(),
            ],
        )?)?;
        virt.create_table(TableSchema::new(
            "information_schema.columns",
            vec![
                Column::new("table_name", DataType::Varchar).not_null(),
                Column::new("column_name", DataType::Varchar).not_null(),
                Column::new("data_type", DataType::Varchar).not_null(),
                Column::new("is_nullable", DataType::Boolean).not_null(),
                Column::new("is_primary_key", DataType::Boolean).not_null(),
            ],
        )?)?;
        for name in catalog.table_names() {
            let t = catalog.table(&name)?;
            virt.table_mut("information_schema.tables")?.insert(vec![
                Value::str(name.clone()),
                Value::Integer(t.schema().columns().len() as i64),
                Value::BigInt(t.len() as i64),
            ])?;
            for c in t.schema().columns() {
                virt.table_mut("information_schema.columns")?.insert(vec![
                    Value::str(name.clone()),
                    Value::str(c.name()),
                    Value::str(c.dtype().to_string()),
                    Value::Boolean(!c.is_not_null()),
                    Value::Boolean(c.is_primary_key()),
                ])?;
            }
        }
        Ok(virt)
    }

    /// Rows the engine has looked at so far on behalf of statements
    /// against catalog tables ([`crate::storage::Table::rows_examined`]):
    /// what a statement costs, without a clock.
    pub fn rows_examined(&self) -> u64 {
        self.inner.lock().catalog.rows_examined()
    }

    /// Number of parsed statements held by the parse cache.
    pub fn cached_statements(&self) -> usize {
        self.inner.lock().stmts.len()
    }

    /// Number of rows in `table` — a test/diagnostic convenience.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] when absent.
    pub fn table_len(&self, table: &str) -> DbResult<usize> {
        Ok(self.inner.lock().catalog.table(table)?.len())
    }

    /// `table`'s write stamp ([`Table::stamp`](crate::storage::Table::stamp)),
    /// `None` when there is no such table: while it reads the same, every
    /// statement over the table alone answers the same at the same
    /// `now()`.
    pub fn table_stamp(&self, table: &str) -> Option<u64> {
        self.inner
            .lock()
            .catalog
            .table(table)
            .ok()
            .map(|t| t.stamp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> MiniDb {
        let db = MiniDb::new("testdb");
        let mut s = db.admin_session();
        db.exec(&mut s, "CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR)")
            .unwrap();
        db.exec(&mut s, "INSERT INTO t VALUES (1, 'one'), (2, 'two')")
            .unwrap();
        db
    }

    /// Every write moves the table's stamp to one never seen before, in
    /// any table of the catalog; a read moves nothing, and neither does a
    /// write to another table.
    #[test]
    fn a_write_stamps_its_table_with_a_fresh_value_and_a_read_never_does() {
        let db = db();
        let mut s = db.admin_session();
        db.exec(&mut s, "CREATE TABLE other (id INTEGER)").unwrap();
        let mut seen = vec![db.table_stamp("t").unwrap()];
        let mut step = |sql: &str, moves: bool| {
            let before = db.table_stamp("t");
            db.exec(&mut s, sql).unwrap();
            let after = db.table_stamp("t");
            assert_eq!(before != after, moves, "{sql}");
            if let Some(after) = after.filter(|_| moves) {
                assert!(!seen.contains(&after), "{sql} repeated stamp {after}");
                seen.push(after);
            }
        };
        step("SELECT * FROM t WHERE id = 1", false);
        step("SELECT count(*) FROM t", false);
        step("INSERT INTO other VALUES (1)", false);
        step("INSERT INTO t VALUES (3, 'three')", true);
        step("UPDATE t SET v = 'THREE' WHERE id = 3", true);
        step("DELETE FROM t WHERE id = 3", true);
        step("BEGIN", false);
        step("INSERT INTO t VALUES (4, 'four')", true);
        step("ROLLBACK", true);
        step("SELECT v FROM t", false);
        step("INSERT INTO other VALUES (2)", false);
        assert_eq!(db.table_stamp("nope"), None);
    }

    #[test]
    fn commit_preserves_rollback_reverts() {
        let db = db();
        let mut s = db.admin_session();
        db.exec(&mut s, "BEGIN").unwrap();
        db.exec(&mut s, "INSERT INTO t VALUES (3, 'three')")
            .unwrap();
        db.exec(&mut s, "UPDATE t SET v = 'ONE' WHERE id = 1")
            .unwrap();
        assert!(s.in_transaction());
        db.exec(&mut s, "ROLLBACK").unwrap();
        assert!(!s.in_transaction());
        assert_eq!(db.table_len("t").unwrap(), 2);
        let rs = db
            .exec(&mut s, "SELECT v FROM t WHERE id = 1")
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::str("one"));

        db.exec(&mut s, "BEGIN").unwrap();
        db.exec(&mut s, "DELETE FROM t WHERE id = 2").unwrap();
        db.exec(&mut s, "COMMIT").unwrap();
        assert_eq!(db.table_len("t").unwrap(), 1);
    }

    #[test]
    fn nested_begin_and_stray_commit_error() {
        let db = db();
        let mut s = db.admin_session();
        db.exec(&mut s, "BEGIN").unwrap();
        assert!(db.exec(&mut s, "BEGIN").is_err());
        db.exec(&mut s, "COMMIT").unwrap();
        assert!(db.exec(&mut s, "COMMIT").is_err());
        assert!(db.exec(&mut s, "ROLLBACK").is_err());
    }

    #[test]
    fn unknown_user_session_rejected() {
        let db = db();
        assert!(matches!(db.session("ghost"), Err(DbError::NoSuchUser(_))));
    }

    #[test]
    fn sessions_are_isolated_for_temp_tables() {
        let db = db();
        let mut a = db.admin_session();
        let mut b = db.admin_session();
        db.exec(&mut a, "CREATE TEMP TABLE scratch (x INTEGER)")
            .unwrap();
        db.exec(&mut a, "INSERT INTO scratch VALUES (1)").unwrap();
        assert!(db.exec(&mut b, "SELECT * FROM scratch").is_err());
    }

    #[test]
    fn temp_tables_shadow_and_stay_private() {
        let db = db();
        let mut s = db.admin_session();
        db.exec(&mut s, "CREATE TEMPORARY TABLE t (x INTEGER)")
            .unwrap();
        db.exec(&mut s, "INSERT INTO t VALUES (42)").unwrap();
        let rs = db.exec(&mut s, "SELECT * FROM t").unwrap().rows().unwrap();
        // The temp table shadows the real one within this session.
        assert_eq!(rs.columns, vec!["x"]);
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(
            db.table_len("t").unwrap(),
            2,
            "the catalog's table is untouched"
        );
    }

    #[test]
    fn temp_table_mutations_survive_rollback() {
        let db = db();
        let mut s = db.admin_session();
        db.exec(&mut s, "CREATE TEMP TABLE scratch (x INTEGER)")
            .unwrap();
        db.exec(&mut s, "BEGIN").unwrap();
        db.exec(&mut s, "INSERT INTO scratch VALUES (1)").unwrap();
        db.exec(&mut s, "INSERT INTO t VALUES (5, 'five')").unwrap();
        db.exec(&mut s, "ROLLBACK").unwrap();
        // Main-table change rolled back, temp-table change kept
        // (session-local storage is outside transaction control).
        assert_eq!(db.table_len("t").unwrap(), 2);
        let rs = db
            .exec(&mut s, "SELECT count(*) FROM scratch")
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::BigInt(1));
    }

    #[test]
    fn information_schema_is_queryable() {
        let db = db();
        let mut s = db.admin_session();
        let rs = db
            .exec(
                &mut s,
                "SELECT table_name, row_count FROM information_schema.tables",
            )
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::str("t"));
        assert_eq!(rs.rows[0][1], Value::BigInt(2));
        let rs = db
            .exec(
                &mut s,
                "SELECT column_name FROM information_schema.columns \
                 WHERE table_name = 't' AND is_primary_key = TRUE",
            )
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::str("id")]]);
    }

    #[test]
    fn now_follows_the_clock() {
        let clock = Clock::simulated();
        let db = MiniDb::with_clock("d", clock.clone());
        let mut s = db.admin_session();
        clock.advance_ms(5_000);
        let rs = db.exec(&mut s, "SELECT now()").unwrap().rows().unwrap();
        assert_eq!(rs.rows[0][0], Value::Timestamp(5_000));
    }

    #[test]
    fn only_texts_that_can_recur_are_cached() {
        let rows = [
            ("BEGIN", true),
            ("SELECT count(*) FROM t", true),
            ("SELECT v FROM t ORDER BY id", true),
            ("SELECT v FROM t WHERE id = $id AND v LIKE 'o%'", true),
            ("INSERT INTO t VALUES (?, ?)", true),
            ("UPDATE t SET v = coalesce(v) WHERE id = ?", true),
            ("INSERT INTO t VALUES (3, 'three')", false),
            ("UPDATE t SET v = 'x' WHERE id = 1", false),
            ("SELECT v FROM t ORDER BY id + 1", false),
            ("DELETE FROM t WHERE id BETWEEN 5 AND 9", false),
        ];
        for (sql, want) in rows {
            assert_eq!(recurs(&parse(sql).unwrap()), want, "{sql}");
        }
        let db = db();
        let mut s = db.admin_session();
        let cached = db.cached_statements();
        db.exec(&mut s, "UPDATE t SET v = 'x' WHERE id = 1")
            .unwrap();
        assert_eq!(db.cached_statements(), cached);
        db.exec(&mut s, "SELECT count(*) FROM t").unwrap();
        db.exec(&mut s, "SELECT count(*) FROM t").unwrap();
        assert_eq!(db.cached_statements(), cached + 1);
    }

    #[test]
    fn params_flow_through_execute() {
        let db = db();
        let mut s = db.admin_session();
        let mut p = Params::new();
        p.insert("1".into(), Value::from(1));
        let rs = db
            .execute(&mut s, "SELECT v FROM t WHERE id = ?", &p)
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::str("one"));
    }
}
