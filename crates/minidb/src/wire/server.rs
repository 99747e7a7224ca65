//! The database wire server: a [`netsim::Service`] hosting sessions.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use netsim::{Addr, NetError, Service};

use crate::auth::AuthMethod;
use crate::db::{MiniDb, Session};
use crate::error::{DbError, DbResult};
use crate::exec::{Params, QueryResult};
use crate::wire::proto::{err_code, ClientAuth, ClientMsg, ServerMsg, ALL_VERSIONS, V2, V3};

struct Slot {
    proto: u16,
    session: Session,
}

struct Pending {
    user: String,
    nonce: u64,
    proto: u16,
}

/// Authenticated sessions and those still owing a challenge answer.
#[derive(Default)]
struct Sessions {
    live: HashMap<u64, Slot>,
    pending: HashMap<u64, Pending>,
}

/// Wire server for one [`MiniDb`] instance.
///
/// Bind it on the network with [`netsim::Network::bind_arc`]; it speaks the
/// protocol of [`crate::wire::proto`] and enforces the configured protocol
/// versions and the database's accepted authentication methods.
pub struct DbServer {
    db: Arc<MiniDb>,
    versions: Vec<u16>,
    next_session: AtomicU64,
    sessions: Mutex<Sessions>,
}

impl std::fmt::Debug for DbServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbServer")
            .field("db", &self.db.name())
            .field("versions", &self.versions)
            .finish()
    }
}

impl DbServer {
    /// Creates a server supporting every protocol version.
    pub fn new(db: Arc<MiniDb>) -> Self {
        DbServer::with_versions(db, &ALL_VERSIONS)
    }

    /// Creates a server supporting only `versions` — e.g. a legacy engine
    /// stuck on v1, or an upgraded engine that dropped v1.
    pub fn with_versions(db: Arc<MiniDb>, versions: &[u16]) -> Self {
        DbServer {
            db,
            versions: versions.to_vec(),
            next_session: AtomicU64::new(1),
            sessions: Mutex::default(),
        }
    }

    /// The served database.
    pub fn db(&self) -> &Arc<MiniDb> {
        &self.db
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

    fn try_handle(&self, msg: ClientMsg) -> DbResult<ServerMsg> {
        match msg {
            ClientMsg::Hello {
                proto,
                database,
                user,
                auth,
            } => self.handle_hello(proto, &database, &user, auth),
            ClientMsg::ChallengeAnswer { session, response } => {
                let Some(pending) = self.sessions.lock().pending.remove(&session) else {
                    return Err(DbError::Session(format!(
                        "no pending challenge for session {session}"
                    )));
                };
                self.db
                    .with_auth(|a| a.verify_challenge(&pending.user, pending.nonce, response))?;
                let db_session = self.db.session(&pending.user)?;
                self.sessions.lock().live.insert(
                    session,
                    Slot {
                        proto: pending.proto,
                        session: db_session,
                    },
                );
                Ok(ServerMsg::HelloOk { session })
            }
            ClientMsg::Query { session, sql } => {
                self.run_query(session, &sql, &Params::new(), false)
            }
            ClientMsg::QueryParams {
                session,
                sql,
                params,
            } => {
                let params: Params = params.into_iter().collect();
                self.run_query(session, &sql, &params, true)
            }
            ClientMsg::Ping { session } => {
                if self.sessions.lock().live.contains_key(&session) {
                    Ok(ServerMsg::Pong)
                } else {
                    Err(DbError::Session(format!("unknown session {session}")))
                }
            }
            ClientMsg::Close { session } => {
                let slot = self.sessions.lock().live.remove(&session);
                if let Some(mut slot) = slot {
                    if slot.session.in_transaction() {
                        self.db.exec(&mut slot.session, "ROLLBACK")?;
                    }
                }
                Ok(ServerMsg::Closed)
            }
        }
    }

    fn handle_hello(
        &self,
        proto: u16,
        database: &str,
        user: &str,
        auth: ClientAuth,
    ) -> DbResult<ServerMsg> {
        if !self.versions.contains(&proto) {
            return Err(DbError::Protocol(format!(
                "protocol version {proto} not supported (server speaks {:?})",
                self.versions
            )));
        }
        if database != self.db.name() {
            return Err(DbError::NoSuchDatabase(database.to_string()));
        }
        match auth {
            ClientAuth::Password(pw) => {
                self.db.with_auth(|a| {
                    if !a.accepts(AuthMethod::Password) {
                        return Err(DbError::Auth(
                            "server requires a stronger authentication method".into(),
                        ));
                    }
                    a.verify_password(user, &pw)
                })?;
                self.open_session(proto, user)
            }
            ClientAuth::Challenge => {
                if proto < V2 {
                    return Err(DbError::Protocol(
                        "challenge authentication requires protocol v2".into(),
                    ));
                }
                if !self.db.with_auth(|a| a.accepts(AuthMethod::Challenge)) {
                    return Err(DbError::Auth(
                        "server does not accept challenge authentication".into(),
                    ));
                }
                if !self.db.with_auth(|a| a.has_user(user)) {
                    return Err(DbError::Auth(format!("unknown user {user}")));
                }
                let session = self.next_session.fetch_add(1, Ordering::SeqCst);
                // Deterministic per-session nonce; a stand-in for a random
                // nonce source.
                let nonce = session
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(0xd1b5);
                self.sessions.lock().pending.insert(
                    session,
                    Pending {
                        user: user.to_string(),
                        nonce,
                        proto,
                    },
                );
                Ok(ServerMsg::ChallengeNonce { session, nonce })
            }
            ClientAuth::Token(tok) => {
                if proto < V3 {
                    return Err(DbError::Protocol(
                        "token authentication requires protocol v3".into(),
                    ));
                }
                self.db.with_auth(|a| a.verify_token(user, tok))?;
                self.open_session(proto, user)
            }
        }
    }

    fn open_session(&self, proto: u16, user: &str) -> DbResult<ServerMsg> {
        let db_session = self.db.session(user)?;
        let session = self.next_session.fetch_add(1, Ordering::SeqCst);
        self.sessions.lock().live.insert(
            session,
            Slot {
                proto,
                session: db_session,
            },
        );
        Ok(ServerMsg::HelloOk { session })
    }

    fn run_query(
        &self,
        session: u64,
        sql: &str,
        params: &Params,
        parameterized: bool,
    ) -> DbResult<ServerMsg> {
        let mut sessions = self.sessions.lock();
        let Some(slot) = sessions.live.get_mut(&session) else {
            return Err(DbError::Session(format!("unknown session {session}")));
        };
        if parameterized && slot.proto < V2 {
            return Err(DbError::Protocol(
                "parameterized queries require protocol v2".into(),
            ));
        }
        let result = self.db.execute(&mut slot.session, sql, params)?;
        Ok(match result {
            QueryResult::Rows(rs) => ServerMsg::Rows(rs),
            QueryResult::Affected(n) => ServerMsg::Affected(n),
        })
    }
}

impl Service for DbServer {
    fn call(&self, _from: &Addr, request: Bytes) -> Result<Bytes, NetError> {
        let msg = ClientMsg::decode(request).map_err(|e| NetError::Protocol(e.to_string()))?;
        Ok(self.handle(msg).encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::{challenge_digest, realm_token};
    use crate::value::Value;
    use crate::wire::proto::V1;

    fn server() -> DbServer {
        let db = Arc::new(MiniDb::new("prod"));
        {
            let mut s = db.admin_session();
            db.exec(&mut s, "CREATE TABLE t (a INTEGER)").unwrap();
            db.exec(&mut s, "INSERT INTO t VALUES (7)").unwrap();
        }
        db.with_auth(|a| a.create_user("bob", "pw").unwrap());
        DbServer::new(db)
    }

    fn hello_ok(msg: ServerMsg) -> u64 {
        match msg {
            ServerMsg::HelloOk { session } => session,
            other => panic!("expected HelloOk, got {other:?}"),
        }
    }

    #[test]
    fn password_login_and_query() {
        let srv = server();
        let sid = hello_ok(srv.handle(ClientMsg::Hello {
            proto: V1,
            database: "prod".into(),
            user: "bob".into(),
            auth: ClientAuth::Password("pw".into()),
        }));
        let r = srv.handle(ClientMsg::Query {
            session: sid,
            sql: "SELECT a FROM t".into(),
        });
        let ServerMsg::Rows(rs) = r else {
            panic!("{r:?}")
        };
        assert_eq!(rs.rows[0][0], Value::Integer(7));
        assert_eq!(srv.sessions.lock().live.len(), 1);
        assert_eq!(
            srv.handle(ClientMsg::Close { session: sid }),
            ServerMsg::Closed
        );
        assert_eq!(srv.sessions.lock().live.len(), 0);
    }

    #[test]
    fn closing_inside_a_transaction_rolls_it_back() {
        let srv = server();
        let sid = hello_ok(srv.handle(ClientMsg::Hello {
            proto: V1,
            database: "prod".into(),
            user: "bob".into(),
            auth: ClientAuth::Password("pw".into()),
        }));
        for sql in ["BEGIN", "INSERT INTO t VALUES (77)"] {
            let r = srv.handle(ClientMsg::Query {
                session: sid,
                sql: sql.into(),
            });
            assert!(matches!(r, ServerMsg::Affected(_)), "{sql}: {r:?}");
        }
        assert_eq!(
            srv.handle(ClientMsg::Close { session: sid }),
            ServerMsg::Closed
        );
        let mut s = srv.db().admin_session();
        let rs = srv
            .db()
            .exec(&mut s, "SELECT a FROM t WHERE a = 77")
            .unwrap()
            .rows()
            .unwrap();
        assert!(rs.rows.is_empty(), "the closed session's INSERT survived");
    }

    #[test]
    fn wrong_database_name_is_rejected() {
        let srv = server();
        let r = srv.handle(ClientMsg::Hello {
            proto: V1,
            database: "staging".into(),
            user: "bob".into(),
            auth: ClientAuth::Password("pw".into()),
        });
        assert!(matches!(r, ServerMsg::Error { .. }));
    }

    #[test]
    fn unsupported_protocol_version_fails_at_connect() {
        let db = Arc::new(MiniDb::new("prod"));
        let srv = DbServer::with_versions(db, &[V1]);
        let r = srv.handle(ClientMsg::Hello {
            proto: V3,
            database: "prod".into(),
            user: "admin".into(),
            auth: ClientAuth::Password("admin".into()),
        });
        let ServerMsg::Error { msg, .. } = r else {
            panic!()
        };
        assert!(msg.contains("protocol version 3"));
    }

    #[test]
    fn challenge_flow_over_wire() {
        let srv = server();
        let r = srv.handle(ClientMsg::Hello {
            proto: V2,
            database: "prod".into(),
            user: "bob".into(),
            auth: ClientAuth::Challenge,
        });
        let ServerMsg::ChallengeNonce { session, nonce } = r else {
            panic!("{r:?}")
        };
        // Wrong answer first.
        let bad = srv.handle(ClientMsg::ChallengeAnswer {
            session,
            response: 0,
        });
        assert!(matches!(bad, ServerMsg::Error { .. }));
        // Pending state is consumed; re-request a nonce.
        let r = srv.handle(ClientMsg::Hello {
            proto: V2,
            database: "prod".into(),
            user: "bob".into(),
            auth: ClientAuth::Challenge,
        });
        let ServerMsg::ChallengeNonce { session, nonce: n2 } = r else {
            panic!()
        };
        assert_ne!(nonce, n2);
        let ok = srv.handle(ClientMsg::ChallengeAnswer {
            session,
            response: challenge_digest("pw", n2),
        });
        hello_ok(ok);
    }

    #[test]
    fn challenge_requires_v2() {
        let srv = server();
        let r = srv.handle(ClientMsg::Hello {
            proto: V1,
            database: "prod".into(),
            user: "bob".into(),
            auth: ClientAuth::Challenge,
        });
        assert!(matches!(r, ServerMsg::Error { .. }));
    }

    #[test]
    fn token_auth_requires_v3_and_valid_token() {
        let srv = server();
        let tok = srv.db().with_auth(|a| realm_token("bob", a.realm_secret()));
        let r = srv.handle(ClientMsg::Hello {
            proto: V2,
            database: "prod".into(),
            user: "bob".into(),
            auth: ClientAuth::Token(tok),
        });
        assert!(matches!(r, ServerMsg::Error { .. }));
        let r = srv.handle(ClientMsg::Hello {
            proto: V3,
            database: "prod".into(),
            user: "bob".into(),
            auth: ClientAuth::Token(tok),
        });
        hello_ok(r);
    }

    #[test]
    fn parameterized_queries_need_v2_session() {
        let srv = server();
        let sid = hello_ok(srv.handle(ClientMsg::Hello {
            proto: V1,
            database: "prod".into(),
            user: "bob".into(),
            auth: ClientAuth::Password("pw".into()),
        }));
        let r = srv.handle(ClientMsg::QueryParams {
            session: sid,
            sql: "SELECT $x".into(),
            params: vec![("x".into(), Value::BigInt(1))],
        });
        assert!(matches!(r, ServerMsg::Error { .. }));
    }

    #[test]
    fn queries_on_dead_sessions_fail() {
        let srv = server();
        let r = srv.handle(ClientMsg::Query {
            session: 999,
            sql: "SELECT 1".into(),
        });
        assert!(matches!(r, ServerMsg::Error { .. }));
        let r = srv.handle(ClientMsg::Ping { session: 999 });
        assert!(matches!(r, ServerMsg::Error { .. }));
    }

    #[test]
    fn auth_method_restriction_reaches_wire() {
        let srv = server();
        srv.db()
            .with_auth(|a| a.set_accepted_methods(&[AuthMethod::Token]));
        let r = srv.handle(ClientMsg::Hello {
            proto: V1,
            database: "prod".into(),
            user: "bob".into(),
            auth: ClientAuth::Password("pw".into()),
        });
        let ServerMsg::Error { msg, .. } = r else {
            panic!()
        };
        assert!(msg.contains("stronger authentication"));
    }
}
