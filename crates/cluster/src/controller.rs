//! The cluster controller: terminates the cluster protocol for clients,
//! replicates writes over its backends (and the group), and optionally
//! embeds a Drivolution server (§5.3.2, Figure 6).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use netsim::{Addr, NetError, Network, Service};

use driverkit::DkError;
use drivolution_core::{DrvError, DrvResult, DRIVOLUTION_PORT};
use drivolution_depot::MirrorDepot;
use drivolution_server::{AdminEvent, DriverStore, DrivolutionServer, EmbeddedExec, ServerConfig};
use minidb::sql::leading_keyword;
use minidb::wire::proto::{err_code, ClientMsg, ServerMsg};
use minidb::{DbError, MiniDb, QueryResult};

use crate::group::Group;
use crate::proto::ClusterFrame;
use crate::vdb::{is_read, VirtualDb};

struct CtrlSession {
    in_txn: bool,
    txn_buffer: Vec<String>,
}

#[derive(Default)]
struct CtrlState {
    sessions: HashMap<u64, CtrlSession>,
    group: Option<Arc<Group>>,
    drivolution: Option<Arc<DrivolutionServer>>,
    mirror: Option<Arc<MirrorDepot>>,
}

/// A Sequoia-like controller.
pub struct Controller {
    id: u32,
    addr: Addr,
    net: Network,
    vdb: Arc<VirtualDb>,
    max_proto: u16,
    running: AtomicBool,
    next_session: AtomicU64,
    state: Mutex<CtrlState>,
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller")
            .field("id", &self.id)
            .field("addr", &self.addr)
            .field("running", &self.is_running())
            .finish()
    }
}

impl Controller {
    /// Creates a controller and binds its client service at `addr`.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn launch(
        net: &Network,
        id: u32,
        addr: Addr,
        vdb: VirtualDb,
        max_proto: u16,
    ) -> DrvResult<Arc<Self>> {
        let ctrl = Arc::new(Controller {
            id,
            addr: addr.clone(),
            net: net.clone(),
            vdb: Arc::new(vdb),
            max_proto,
            running: AtomicBool::new(true),
            next_session: AtomicU64::new(1),
            state: Mutex::default(),
        });
        net.bind_arc(addr, ctrl.clone())?;
        Ok(ctrl)
    }

    /// Controller id (unique within a group).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Client service address.
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// The controller's virtual database.
    pub fn vdb(&self) -> &Arc<VirtualDb> {
        &self.vdb
    }

    /// Whether the controller is serving.
    pub fn is_running(&self) -> bool {
        self.running.load(Ordering::SeqCst)
    }

    pub(crate) fn set_group(&self, group: Arc<Group>) {
        self.state.lock().group = Some(group);
    }

    /// The embedded Drivolution server, if one was attached.
    pub fn drivolution(&self) -> Option<Arc<DrivolutionServer>> {
        self.state.lock().drivolution.clone()
    }

    fn mirror(&self) -> Option<Arc<MirrorDepot>> {
        self.state.lock().mirror.clone()
    }

    /// Embeds a Drivolution server in this controller (Figure 6), bound
    /// on the controller host's Drivolution port. Admin events replicate
    /// through the controller group.
    ///
    /// # Errors
    ///
    /// Schema or bind failures.
    pub fn embed_drivolution(
        self: &Arc<Self>,
        config: ServerConfig,
    ) -> DrvResult<Arc<DrivolutionServer>> {
        let store_db = Arc::new(MiniDb::with_clock(
            format!("ctrl{}-drv-store", self.id),
            self.net.clock().clone(),
        ));
        let store = DriverStore::new(Box::new(EmbeddedExec::new(store_db)));
        store.install_schema()?;
        let server = Arc::new(DrivolutionServer::new(
            self.addr.host().to_string(),
            store,
            self.net.clock().clone(),
            config,
        ));
        self.net
            .bind_arc(self.addr.with_port(DRIVOLUTION_PORT), server.clone())?;
        self.state.lock().drivolution = Some(server.clone());
        // Replicate admin events to the other controllers' servers.
        let me = Arc::downgrade(self);
        server.subscribe(Arc::new(move |event| {
            if let Some(ctrl) = me.upgrade() {
                let group = ctrl.state.lock().group.clone();
                if let Some(g) = group {
                    g.replicate_admin(ctrl.id, event);
                }
            }
        }));
        Ok(server)
    }

    /// Attaches a depot mirror on this controller's host at `port`,
    /// replicating alongside the driver table: the mirror is warmed with
    /// every driver image the embedded server already holds and kept warm
    /// on later direct installs through the admin-event hook (content
    /// arriving via group replication is picked up read-through on first
    /// demand). The mirror registers itself with the server's mirror
    /// directory over the announce protocol (`MirrorDepot::launch`
    /// self-announces), immediately heartbeats its warmed coverage, and
    /// keeps itself out of quarantine through its own scheduler-driven
    /// heartbeat task — nobody hand-cranks heartbeats; the controller
    /// only pauses the task across [`stop`](Self::stop)/
    /// [`start`](Self::start).
    ///
    /// # Errors
    ///
    /// [`DrvError::Internal`] when no Drivolution server is embedded;
    /// bind failures.
    pub fn attach_depot_mirror(self: &Arc<Self>, port: u16) -> DrvResult<Arc<MirrorDepot>> {
        if let Some(existing) = self.mirror() {
            return Ok(existing);
        }
        let server = self.drivolution().ok_or_else(|| {
            DrvError::Internal("attach_depot_mirror requires an embedded drivolution server".into())
        })?;
        let mirror = MirrorDepot::launch(
            &self.net,
            self.addr.with_port(port),
            self.addr.with_port(DRIVOLUTION_PORT),
        )?;
        let params = server.depot_chunking();
        for digest in server.depot().image_digests() {
            if let Some(bytes) = server.depot().image(digest) {
                mirror.preload(bytes, &params);
            }
        }
        let warm = mirror.clone();
        server.subscribe(Arc::new(move |event| {
            if let AdminEvent::DriverAdded(rec) = event {
                warm.preload(rec.binary.clone(), &params);
            }
        }));
        mirror.heartbeat()?;
        self.state.lock().mirror = Some(mirror.clone());
        Ok(mirror)
    }

    /// Stops serving: the client port and the embedded Drivolution port
    /// are unbound, the attached mirror's lifecycle tasks are paused,
    /// and all sessions are dropped (a controller restart for a rolling
    /// upgrade, §5.3.1).
    pub fn stop(&self) {
        self.running.store(false, Ordering::SeqCst);
        self.net.unbind(&self.addr);
        let mut st = self.state.lock();
        st.sessions.clear();
        if st.drivolution.is_some() {
            self.net.unbind(&self.addr.with_port(DRIVOLUTION_PORT));
        }
        if let Some(mirror) = &st.mirror {
            self.net.unbind(mirror.addr());
            // A stopped controller must not keep beating a heart it
            // unplugged: the scheduler task goes quiet with it, and the
            // directory quarantines the entry like any dead mirror.
            mirror.pause_lifecycle();
        }
    }

    /// Restarts a stopped controller.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn start(self: &Arc<Self>) -> DrvResult<()> {
        if self.is_running() {
            return Ok(());
        }
        self.net.bind_arc(self.addr.clone(), self.clone())?;
        if let Some(drv) = self.drivolution() {
            self.net
                .bind_arc(self.addr.with_port(DRIVOLUTION_PORT), drv)?;
        }
        if let Some(mirror) = self.mirror() {
            self.net.bind_arc(mirror.addr().clone(), mirror.clone())?;
            // The directory may have evicted the mirror while the
            // controller was down; re-announce and refresh coverage once,
            // then let the resumed heartbeat task take over.
            let _ = mirror.announce();
            let _ = mirror.heartbeat();
            mirror.resume_lifecycle();
        }
        self.running.store(true, Ordering::SeqCst);
        Ok(())
    }

    fn write_path(&self, sql: &str) -> Result<QueryResult, DkError> {
        let group = self.state.lock().group.clone();
        match group {
            Some(g) => g.ordered_write(self, sql),
            None => self.vdb.execute_write(sql),
        }
    }

    fn handle(&self, msg: ClientMsg) -> ServerMsg {
        match self.try_handle(msg) {
            Ok(m) => m,
            Err(e) => ServerMsg::Error {
                code: err_code(&e),
                msg: e.to_string(),
            },
        }
    }

    fn dk_to_db(e: DkError) -> DbError {
        match e {
            DkError::Db(db) => db,
            other => DbError::Session(other.to_string()),
        }
    }

    fn try_handle(&self, msg: ClientMsg) -> Result<ServerMsg, DbError> {
        match msg {
            ClientMsg::Hello { database, .. } => {
                if database != self.vdb.name() {
                    return Err(DbError::NoSuchDatabase(database));
                }
                let session = self.next_session.fetch_add(1, Ordering::SeqCst);
                self.state.lock().sessions.insert(
                    session,
                    CtrlSession {
                        in_txn: false,
                        txn_buffer: Vec::new(),
                    },
                );
                Ok(ServerMsg::HelloOk { session })
            }
            ClientMsg::Query { session, sql } => {
                let mut st = self.state.lock();
                let s = st
                    .sessions
                    .get_mut(&session)
                    .ok_or_else(|| DbError::Session(format!("unknown session {session}")))?;
                let head = leading_keyword(&sql);
                let is = |kw: &str| head.eq_ignore_ascii_case(kw);
                if is("BEGIN") || is("START") {
                    if s.in_txn {
                        return Err(DbError::Txn("transaction already open".into()));
                    }
                    s.in_txn = true;
                    Ok(ServerMsg::Affected(0))
                } else if is("ROLLBACK") {
                    if !s.in_txn {
                        return Err(DbError::Txn("no open transaction".into()));
                    }
                    s.in_txn = false;
                    s.txn_buffer.clear();
                    Ok(ServerMsg::Affected(0))
                } else if is("COMMIT") {
                    if !s.in_txn {
                        return Err(DbError::Txn("no open transaction".into()));
                    }
                    s.in_txn = false;
                    let stmts = std::mem::take(&mut s.txn_buffer);
                    drop(st);
                    for stmt in stmts {
                        self.write_path(&stmt).map_err(Self::dk_to_db)?;
                    }
                    Ok(ServerMsg::Affected(0))
                } else if is_read(&sql) {
                    drop(st);
                    let r = self.vdb.execute_read(&sql).map_err(Self::dk_to_db)?;
                    Ok(match r {
                        QueryResult::Rows(rs) => ServerMsg::Rows(rs),
                        QueryResult::Affected(n) => ServerMsg::Affected(n),
                    })
                } else if s.in_txn {
                    // Buffered until COMMIT (controller-level atomicity;
                    // see crate docs for the read-your-writes caveat).
                    s.txn_buffer.push(sql);
                    Ok(ServerMsg::Affected(0))
                } else {
                    drop(st);
                    let r = self.write_path(&sql).map_err(Self::dk_to_db)?;
                    Ok(match r {
                        QueryResult::Rows(rs) => ServerMsg::Rows(rs),
                        QueryResult::Affected(n) => ServerMsg::Affected(n),
                    })
                }
            }
            ClientMsg::QueryParams { .. } => Err(DbError::Protocol(
                "parameterized statements are not part of the cluster protocol".into(),
            )),
            ClientMsg::ChallengeAnswer { .. } => Err(DbError::Protocol(
                "challenge auth is not part of the cluster protocol".into(),
            )),
            ClientMsg::Ping { session } => {
                if self.state.lock().sessions.contains_key(&session) {
                    Ok(ServerMsg::Pong)
                } else {
                    Err(DbError::Session(format!("unknown session {session}")))
                }
            }
            ClientMsg::Close { session } => {
                self.state.lock().sessions.remove(&session);
                Ok(ServerMsg::Closed)
            }
        }
    }
}

impl Service for Controller {
    fn call(&self, _from: &Addr, request: Bytes) -> Result<Bytes, NetError> {
        if !self.is_running() {
            return Err(NetError::Refused(format!(
                "controller {} is stopped",
                self.id
            )));
        }
        let frame = ClusterFrame::decode(request).map_err(|e| NetError::Protocol(e.to_string()))?;
        if frame.version > self.max_proto {
            // Version mismatch detected at the protocol layer (§5.3.1).
            let reply = ServerMsg::Error {
                code: err_code(&DbError::Protocol(String::new())),
                msg: format!(
                    "cluster protocol v{} not supported (controller speaks <= v{})",
                    frame.version, self.max_proto
                ),
            };
            return Ok(reply.encode());
        }
        let msg = ClientMsg::decode(frame.inner).map_err(|e| NetError::Protocol(e.to_string()))?;
        Ok(self.handle(msg).encode())
    }
}
