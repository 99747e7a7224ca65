//! The cluster client driver (the "Sequoia driver" of §5.3): multi-host
//! URLs, load balancing, transparent controller failover, and
//! backward-compatible protocol negotiation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use netsim::{Addr, Network};

use driverkit::{
    ConnectProps, Connection, DbUrl, DkError, DkResult, Driver, DriverFactory, UrlScheme,
};
use drivolution_core::{DriverFlavor, DriverImage, DriverVersion};
use minidb::sql::leading_keyword;
use minidb::wire::proto::{err_from, ClientAuth, ClientMsg, ServerMsg};
use minidb::{DbError, Params, QueryResult};

use crate::proto::ClusterFrame;
use crate::CLUSTER_V1;

/// A [`Driver`] interpreting a cluster-flavor [`DriverImage`]; its
/// `db_protocol` field is the cluster protocol version it speaks.
pub struct ClusterDriver {
    image: DriverImage,
    net: Network,
    local: Addr,
    /// Connections opened so far: each starts at the next controller.
    connects: AtomicUsize,
}

impl std::fmt::Debug for ClusterDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ClusterDriver({} v{} cluster-proto v{})",
            self.image.name, self.image.version, self.image.db_protocol
        )
    }
}

impl ClusterDriver {
    /// Instantiates a cluster driver from an image.
    ///
    /// # Errors
    ///
    /// [`DkError::Unsupported`] for non-cluster images.
    pub fn new(image: DriverImage, net: Network, local: Addr) -> DkResult<Self> {
        if image.flavor != DriverFlavor::Cluster {
            return Err(DkError::Unsupported(format!(
                "image {} has flavor {:?}; expected Cluster",
                image.name, image.flavor
            )));
        }
        Ok(ClusterDriver {
            image,
            net,
            local,
            connects: AtomicUsize::new(0),
        })
    }

    /// The interpreted image.
    pub fn image(&self) -> &DriverImage {
        &self.image
    }
}

impl Driver for ClusterDriver {
    fn name(&self) -> &str {
        &self.image.name
    }

    fn version(&self) -> DriverVersion {
        self.image.version
    }

    fn connect(&self, url: &DbUrl, props: &ConnectProps) -> DkResult<Box<dyn Connection>> {
        if url.scheme() != UrlScheme::Cluster {
            return Err(DkError::BadUrl(format!(
                "cluster driver {} cannot serve {url}",
                self.image.name
            )));
        }
        // Load balance the starting controller (§5.3.2: "bootloaders
        // exploit this information to load balance their requests").
        let start = self.connects.fetch_add(1, Ordering::Relaxed) % url.hosts().len();
        let mut conn = ClusterConnection {
            net: self.net.clone(),
            local: self.local.clone(),
            controllers: url.hosts().to_vec(),
            database: url.database().to_string(),
            user: props.user.clone(),
            password: props.password.clone(),
            next_controller: start,
            session: None,
            proto: self.image.db_protocol.max(CLUSTER_V1),
            txn: false,
        };
        conn.reconnect()?;
        Ok(Box::new(conn))
    }
}

/// Registers cluster-driver interpretation with a [`driverkit::DriverVm`].
pub struct ClusterDriverFactory {
    net: Network,
    local: Addr,
}

impl std::fmt::Debug for ClusterDriverFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterDriverFactory")
            .finish_non_exhaustive()
    }
}

impl ClusterDriverFactory {
    /// Creates a factory for an application at `local`.
    pub fn new(net: Network, local: Addr) -> Arc<Self> {
        Arc::new(ClusterDriverFactory { net, local })
    }
}

impl DriverFactory for ClusterDriverFactory {
    fn instantiate(&self, image: DriverImage) -> DkResult<Arc<dyn Driver>> {
        Ok(Arc::new(ClusterDriver::new(
            image,
            self.net.clone(),
            self.local.clone(),
        )?))
    }
}

struct ClusterConnection {
    net: Network,
    local: Addr,
    controllers: Vec<Addr>,
    database: String,
    user: String,
    password: String,
    next_controller: usize,
    session: Option<(Addr, u64)>,
    proto: u16,
    txn: bool,
}

impl ClusterConnection {
    /// (Re)establishes a session on some controller, negotiating the
    /// protocol version downward for backward compatibility.
    fn reconnect(&mut self) -> DkResult<()> {
        let n = self.controllers.len();
        let mut last: Option<DkError> = None;
        for off in 0..n {
            let ctrl = self.controllers[(self.next_controller + off) % n].clone();
            let mut version = self.proto;
            loop {
                match self.hello(&ctrl, version) {
                    Ok(session) => {
                        self.session = Some((ctrl, session));
                        self.next_controller = (self.next_controller + off) % n;
                        // Stick to the negotiated version for the session.
                        self.proto = version;
                        return Ok(());
                    }
                    Err(DkError::Db(DbError::Protocol(msg)))
                        if version > CLUSTER_V1 && msg.contains("not supported") =>
                    {
                        // Backward compatibility: retry with an older
                        // protocol version (§5.3.1).
                        version -= 1;
                    }
                    Err(e @ DkError::Db(_)) => return Err(e),
                    Err(e) => {
                        last = Some(e);
                        break;
                    }
                }
            }
        }
        Err(DkError::NoHostAvailable(format!(
            "no controller reachable: {}",
            last.map(|e| e.to_string()).unwrap_or_default()
        )))
    }

    fn hello(&self, ctrl: &Addr, version: u16) -> DkResult<u64> {
        let inner = ClientMsg::Hello {
            proto: 1,
            database: self.database.clone(),
            user: self.user.clone(),
            auth: ClientAuth::Password(self.password.clone()),
        };
        let reply = self.roundtrip_to(ctrl, version, inner)?;
        match reply {
            ServerMsg::HelloOk { session } => Ok(session),
            ServerMsg::Error { code, msg } => Err(DkError::Db(err_from(code, msg))),
            other => Err(DkError::Db(DbError::Protocol(format!(
                "unexpected hello reply {other:?}"
            )))),
        }
    }

    fn roundtrip_to(&self, ctrl: &Addr, version: u16, inner: ClientMsg) -> DkResult<ServerMsg> {
        let frame = ClusterFrame::new(version, inner.encode());
        let raw = self
            .net
            .request(&self.local, ctrl, frame.encode())
            .map_err(|e| DkError::Drv(drivolution_core::DrvError::Net(e.to_string())))?;
        ServerMsg::decode(raw).map_err(|e| DkError::Db(DbError::Protocol(e.to_string())))
    }

    fn run(&mut self, sql: &str) -> DkResult<QueryResult> {
        for attempt in 0..2 {
            let Some((ctrl, session)) = self.session.clone() else {
                self.reconnect()?;
                continue;
            };
            let inner = ClientMsg::Query {
                session,
                sql: sql.to_string(),
            };
            match self.roundtrip_to(&ctrl, self.proto, inner) {
                Ok(reply) => {
                    let r = reply.into_result().map_err(DkError::Db)?;
                    self.track_txn(sql);
                    return Ok(r);
                }
                Err(DkError::Db(e)) => return Err(DkError::Db(e)),
                Err(_) if attempt == 0 => {
                    // Transparent failover to another controller; open
                    // transactions cannot be migrated.
                    if self.txn {
                        self.session = None;
                        self.txn = false;
                        return Err(DkError::Closed(
                            "controller failed with an open transaction".into(),
                        ));
                    }
                    self.session = None;
                    self.next_controller = (self.next_controller + 1) % self.controllers.len();
                    self.reconnect()?;
                }
                Err(e) => return Err(e),
            }
        }
        Err(DkError::NoHostAvailable("cluster retry exhausted".into()))
    }

    fn track_txn(&mut self, sql: &str) {
        let head = leading_keyword(sql);
        let is = |kw: &str| head.eq_ignore_ascii_case(kw);
        if is("BEGIN") || is("START") {
            self.txn = true;
        } else if is("COMMIT") || is("ROLLBACK") {
            self.txn = false;
        }
    }
}

impl Connection for ClusterConnection {
    fn execute(&mut self, sql: &str) -> DkResult<QueryResult> {
        self.run(sql)
    }

    fn execute_params(&mut self, _sql: &str, _params: &Params) -> DkResult<QueryResult> {
        Err(DkError::Unsupported(
            "the cluster protocol does not carry parameterized statements".into(),
        ))
    }

    fn begin(&mut self) -> DkResult<()> {
        self.run("BEGIN").map(|_| ())
    }

    fn commit(&mut self) -> DkResult<()> {
        self.run("COMMIT").map(|_| ())
    }

    fn rollback(&mut self) -> DkResult<()> {
        self.run("ROLLBACK").map(|_| ())
    }

    fn in_transaction(&self) -> bool {
        self.txn
    }

    fn is_open(&self) -> bool {
        self.session.is_some()
    }

    fn close(&mut self) -> DkResult<()> {
        if let Some((ctrl, session)) = self.session.take() {
            let _ = self.roundtrip_to(&ctrl, self.proto, ClientMsg::Close { session });
        }
        Ok(())
    }

    fn geo_query(&mut self, wkt: &str) -> DkResult<QueryResult> {
        if self.image_has_gis() {
            let escaped = wkt.replace('\'', "''");
            self.run(&format!("SELECT '{escaped}' AS geometry"))
        } else {
            Err(DkError::ExtensionMissing("gis".into()))
        }
    }

    fn localized_message(&self, key: &str) -> DkResult<String> {
        Ok(format!("[en_US] {key}"))
    }
}

impl ClusterConnection {
    fn image_has_gis(&self) -> bool {
        // Cluster connections do not retain the image; GIS through the
        // cluster path is out of scope for the case studies.
        false
    }
}

impl Drop for ClusterConnection {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

/// Builds a Sequoia-style cluster driver image: `db_protocol` doubles as
/// the cluster protocol version.
pub fn cluster_image(name: &str, version: DriverVersion, cluster_proto: u16) -> DriverImage {
    let mut image = DriverImage::new(name, version, cluster_proto);
    image.flavor = DriverFlavor::Cluster;
    image
}
