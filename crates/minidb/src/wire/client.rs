//! Raw wire client, the lowest layer a database driver builds on.

use netsim::{Addr, Network};

use crate::auth::challenge_digest;
use crate::error::{DbError, DbResult};
use crate::exec::{Params, QueryResult};
use crate::wire::proto::{ClientAuth, ClientMsg, ServerMsg, V2};

/// Credentials used by [`RawClient::connect`].
#[derive(Clone, Debug)]
pub enum Credentials {
    /// Cleartext password.
    Password(String),
    /// Challenge/response; the password never crosses the wire.
    Challenge(String),
    /// Pre-computed realm token (what a Kerberos keytab yields).
    Token(u64),
}

/// A connected wire session to a [`crate::wire::DbServer`].
///
/// This is deliberately dumb: protocol enforcement, leases, and driver
/// lifecycle live in higher layers (`driverkit`, the Drivolution
/// bootloader). A `RawClient` is what the paper calls "the driver's
/// connection" once established.
#[derive(Debug)]
pub struct RawClient {
    net: Network,
    local: Addr,
    server: Addr,
    session: u64,
    proto: u16,
    closed: bool,
}

impl RawClient {
    /// Performs the wire handshake (paper lifecycle steps 5–6: protocol
    /// compatibility check, then authentication).
    ///
    /// # Errors
    ///
    /// [`DbError::Protocol`] on version mismatch, [`DbError::Auth`] on
    /// credential failure, [`DbError::NoSuchDatabase`] on a wrong database
    /// name, or a transport error mapped to [`DbError::Session`].
    pub fn connect(
        net: &Network,
        local: &Addr,
        server: &Addr,
        proto: u16,
        database: &str,
        user: &str,
        credentials: &Credentials,
    ) -> DbResult<RawClient> {
        let auth = match credentials {
            Credentials::Password(p) => ClientAuth::Password(p.clone()),
            Credentials::Challenge(_) => ClientAuth::Challenge,
            Credentials::Token(t) => ClientAuth::Token(*t),
        };
        let reply = Self::exchange_on(
            net,
            local,
            server,
            ClientMsg::Hello {
                proto,
                database: database.to_string(),
                user: user.to_string(),
                auth,
            },
        )?;
        let session = match (reply, credentials) {
            (ServerMsg::HelloOk { session }, _) => session,
            (ServerMsg::ChallengeNonce { session, nonce }, Credentials::Challenge(pw)) => {
                let reply = Self::exchange_on(
                    net,
                    local,
                    server,
                    ClientMsg::ChallengeAnswer {
                        session,
                        response: challenge_digest(pw, nonce),
                    },
                )?;
                match reply {
                    ServerMsg::HelloOk { session } => session,
                    ServerMsg::Error { code, msg } => {
                        return Err(crate::wire::proto::err_from(code, msg))
                    }
                    other => {
                        return Err(DbError::Protocol(format!(
                            "unexpected challenge reply {other:?}"
                        )))
                    }
                }
            }
            (ServerMsg::Error { code, msg }, _) => {
                return Err(crate::wire::proto::err_from(code, msg))
            }
            (other, _) => {
                return Err(DbError::Protocol(format!(
                    "unexpected handshake reply {other:?}"
                )))
            }
        };
        Ok(RawClient {
            net: net.clone(),
            local: local.clone(),
            server: server.clone(),
            session,
            proto,
            closed: false,
        })
    }

    fn exchange_on(
        net: &Network,
        local: &Addr,
        server: &Addr,
        msg: ClientMsg,
    ) -> DbResult<ServerMsg> {
        let resp = net
            .request(local, server, msg.encode())
            .map_err(|e| DbError::Session(e.to_string()))?;
        ServerMsg::decode(resp).map_err(|e| DbError::Protocol(e.to_string()))
    }

    fn exchange(&self, msg: ClientMsg) -> DbResult<ServerMsg> {
        if self.closed {
            return Err(DbError::Session("client already closed".into()));
        }
        Self::exchange_on(&self.net, &self.local, &self.server, msg)
    }

    /// The negotiated protocol version.
    pub fn proto(&self) -> u16 {
        self.proto
    }

    /// The server address this session is bound to.
    pub fn server(&self) -> &Addr {
        &self.server
    }

    /// Executes plain SQL.
    ///
    /// # Errors
    ///
    /// Any [`DbError`] reported by the server or transport.
    pub fn query(&self, sql: &str) -> DbResult<QueryResult> {
        self.exchange(ClientMsg::Query {
            session: self.session,
            sql: sql.to_string(),
        })?
        .into_result()
    }

    /// Executes parameterized SQL (protocol v2+).
    ///
    /// # Errors
    ///
    /// [`DbError::Protocol`] on a v1 session; otherwise as for
    /// [`RawClient::query`].
    pub fn query_params(&self, sql: &str, params: &Params) -> DbResult<QueryResult> {
        if self.proto < V2 {
            return Err(DbError::Protocol(
                "parameterized queries require protocol v2".into(),
            ));
        }
        let params: Vec<(String, crate::value::Value)> =
            params.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        self.exchange(ClientMsg::QueryParams {
            session: self.session,
            sql: sql.to_string(),
            params,
        })?
        .into_result()
    }

    /// Probes session liveness.
    ///
    /// # Errors
    ///
    /// [`DbError::Session`] if the session is gone or transport failed.
    pub fn ping(&self) -> DbResult<()> {
        match self.exchange(ClientMsg::Ping {
            session: self.session,
        })? {
            ServerMsg::Pong => Ok(()),
            ServerMsg::Error { code, msg } => Err(crate::wire::proto::err_from(code, msg)),
            other => Err(DbError::Protocol(format!(
                "unexpected ping reply {other:?}"
            ))),
        }
    }

    /// Closes the session. Idempotent best-effort on drop; explicit close
    /// reports errors.
    ///
    /// # Errors
    ///
    /// Transport errors as [`DbError::Session`].
    pub fn close(&mut self) -> DbResult<()> {
        if self.closed {
            return Ok(());
        }
        let r = self.exchange(ClientMsg::Close {
            session: self.session,
        });
        self.closed = true;
        r.map(|_| ())
    }
}

impl Drop for RawClient {
    fn drop(&mut self) {
        if !self.closed {
            let _ = self.exchange(ClientMsg::Close {
                session: self.session,
            });
            self.closed = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::auth::realm_token;
    use crate::db::MiniDb;
    use crate::value::Value;
    use crate::wire::proto::{V1, V3};
    use crate::wire::server::DbServer;

    fn setup() -> (Network, Addr, Arc<MiniDb>) {
        let net = Network::new();
        let db = Arc::new(MiniDb::new("prod"));
        {
            let mut s = db.admin_session();
            db.exec(&mut s, "CREATE TABLE t (a INTEGER)").unwrap();
            db.exec(&mut s, "INSERT INTO t VALUES (1), (2)").unwrap();
        }
        db.with_auth(|a| a.create_user("bob", "pw").unwrap());
        let addr = Addr::new("db1", 5432);
        net.bind_arc(addr.clone(), Arc::new(DbServer::new(db.clone())))
            .unwrap();
        (net, addr, db)
    }

    fn local() -> Addr {
        Addr::new("app", 1)
    }

    #[test]
    fn end_to_end_password_session() {
        let (net, addr, _db) = setup();
        let mut c = RawClient::connect(
            &net,
            &local(),
            &addr,
            V1,
            "prod",
            "bob",
            &Credentials::Password("pw".into()),
        )
        .unwrap();
        let rs = c.query("SELECT count(*) FROM t").unwrap().rows().unwrap();
        assert_eq!(rs.rows[0][0], Value::BigInt(2));
        c.ping().unwrap();
        c.close().unwrap();
        assert!(c.query("SELECT 1").is_err());
    }

    #[test]
    fn challenge_session_and_params() {
        let (net, addr, _db) = setup();
        let c = RawClient::connect(
            &net,
            &local(),
            &addr,
            V2,
            "prod",
            "bob",
            &Credentials::Challenge("pw".into()),
        )
        .unwrap();
        let mut p = Params::new();
        p.insert("lo".into(), Value::BigInt(1));
        let rs = c
            .query_params("SELECT a FROM t WHERE a > $lo", &p)
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Integer(2)]]);
    }

    #[test]
    fn bad_challenge_password_fails() {
        let (net, addr, _db) = setup();
        let r = RawClient::connect(
            &net,
            &local(),
            &addr,
            V2,
            "prod",
            "bob",
            &Credentials::Challenge("WRONG".into()),
        );
        assert!(matches!(r, Err(DbError::Auth(_))));
    }

    #[test]
    fn token_session() {
        let (net, addr, db) = setup();
        let tok = db.with_auth(|a| realm_token("bob", a.realm_secret()));
        let c = RawClient::connect(
            &net,
            &local(),
            &addr,
            V3,
            "prod",
            "bob",
            &Credentials::Token(tok),
        )
        .unwrap();
        c.ping().unwrap();
    }

    #[test]
    fn params_on_v1_rejected_client_side() {
        let (net, addr, _db) = setup();
        let c = RawClient::connect(
            &net,
            &local(),
            &addr,
            V1,
            "prod",
            "bob",
            &Credentials::Password("pw".into()),
        )
        .unwrap();
        assert!(matches!(
            c.query_params("SELECT 1", &Params::new()),
            Err(DbError::Protocol(_))
        ));
    }

    #[test]
    fn server_down_maps_to_session_error() {
        let (net, addr, _db) = setup();
        net.with_faults(|f| f.take_down("db1"));
        let r = RawClient::connect(
            &net,
            &local(),
            &addr,
            V1,
            "prod",
            "bob",
            &Credentials::Password("pw".into()),
        );
        assert!(matches!(r, Err(DbError::Session(_))));
    }

    #[test]
    fn transactions_span_wire_calls() {
        let (net, addr, db) = setup();
        let c = RawClient::connect(
            &net,
            &local(),
            &addr,
            V1,
            "prod",
            "admin",
            &Credentials::Password("admin".into()),
        )
        .unwrap();
        c.query("BEGIN").unwrap();
        c.query("INSERT INTO t VALUES (99)").unwrap();
        c.query("ROLLBACK").unwrap();
        assert_eq!(db.table_len("t").unwrap(), 2);
        c.query("BEGIN").unwrap();
        c.query("INSERT INTO t VALUES (99)").unwrap();
        c.query("COMMIT").unwrap();
        assert_eq!(db.table_len("t").unwrap(), 3);
    }
}
