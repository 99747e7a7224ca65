//! Wire messages and their binary encoding.
//!
//! The protocol is versioned to reproduce the paper's driver↔database
//! compatibility failures:
//!
//! | Version | Capabilities |
//! |---|---|
//! | [`V1`] | plain queries, password auth |
//! | [`V2`] | + parameterized queries, challenge auth |
//! | [`V3`] | + realm-token auth (Kerberos-like) |
//!
//! A driver speaking a version the server does not support fails at
//! *connect* time (paper §2, step 5); a driver lacking the auth method the
//! database requires fails at *authenticate* time (step 6).

use bytes::{BufMut, Bytes, BytesMut};

use netsim::codec::{
    get_bytes, get_code, get_i64, get_items, get_str, get_u16, get_u32, get_u64, get_u8, put_bytes,
    put_str, wire_enum, CodecError,
};

use crate::auth::AuthMethod;
use crate::error::DbError;
use crate::exec::{QueryResult, RowSet};
use crate::value::Value;

/// Protocol version 1: plain queries, password auth.
pub const V1: u16 = 1;
/// Protocol version 2: adds parameterized queries and challenge auth.
pub const V2: u16 = 2;
/// Protocol version 3: adds realm-token auth.
pub const V3: u16 = 3;
/// All versions, oldest first.
pub const ALL_VERSIONS: [u16; 3] = [V1, V2, V3];

/// Client credentials presented in `Hello`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientAuth {
    /// Cleartext password (any version).
    Password(String),
    /// Request a challenge nonce (v2+); answer follows in
    /// [`ClientMsg::ChallengeAnswer`].
    Challenge,
    /// Realm token (v3+).
    Token(u64),
}

/// Messages from client to server.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientMsg {
    /// Open a session.
    Hello {
        /// Requested protocol version.
        proto: u16,
        /// Database name the client expects to reach.
        database: String,
        /// User name.
        user: String,
        /// Credentials.
        auth: ClientAuth,
    },
    /// Answer to a challenge nonce.
    ChallengeAnswer {
        /// Session being authenticated.
        session: u64,
        /// `weak_hash(password || nonce)`.
        response: u64,
    },
    /// Plain SQL (all versions).
    Query {
        /// Session id.
        session: u64,
        /// SQL text.
        sql: String,
    },
    /// Parameterized SQL (v2+).
    QueryParams {
        /// Session id.
        session: u64,
        /// SQL text with `$name`/`?` placeholders.
        sql: String,
        /// Bound parameters.
        params: Vec<(String, Value)>,
    },
    /// Liveness probe.
    Ping {
        /// Session id.
        session: u64,
    },
    /// Close the session.
    Close {
        /// Session id.
        session: u64,
    },
}

/// Messages from server to client.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerMsg {
    /// Session established.
    HelloOk {
        /// Assigned session id.
        session: u64,
    },
    /// Challenge nonce for [`ClientAuth::Challenge`].
    ChallengeNonce {
        /// Session id (pre-authentication).
        session: u64,
        /// Nonce to digest with the password.
        nonce: u64,
    },
    /// SELECT result.
    Rows(RowSet),
    /// DML/DDL result.
    Affected(u64),
    /// Ping reply.
    Pong,
    /// Close acknowledgement.
    Closed,
    /// Structured error.
    Error {
        /// Stable error code (see [`err_code`]).
        code: u16,
        /// Human-readable message.
        msg: String,
    },
}

// --- error code mapping -------------------------------------------------

/// Maps a [`DbError`] to a stable wire code.
pub fn err_code(e: &DbError) -> u16 {
    match e {
        DbError::Lex(_) => 1,
        DbError::Parse(_) => 2,
        DbError::NoSuchTable(_) => 3,
        DbError::NoSuchColumn(_) => 4,
        DbError::TableExists(_) => 5,
        DbError::Constraint(_) => 6,
        DbError::DuplicateKey(_) => 7,
        DbError::ForeignKey(_) => 8,
        DbError::Type(_) => 9,
        DbError::UnboundParam(_) => 10,
        DbError::NoSuchFunction(_) => 11,
        DbError::Auth(_) => 12,
        DbError::Denied(_) => 13,
        DbError::Txn(_) => 14,
        DbError::NoSuchUser(_) => 15,
        DbError::NoSuchDatabase(_) => 16,
        DbError::Protocol(_) => 17,
        DbError::Session(_) => 18,
        DbError::Internal(_) => 19,
    }
}

/// Reconstructs a [`DbError`] from a wire code and message.
pub fn err_from(code: u16, msg: String) -> DbError {
    match code {
        1 => DbError::Lex(msg),
        2 => DbError::Parse(msg),
        3 => DbError::NoSuchTable(msg),
        4 => DbError::NoSuchColumn(msg),
        5 => DbError::TableExists(msg),
        6 => DbError::Constraint(msg),
        7 => DbError::DuplicateKey(msg),
        8 => DbError::ForeignKey(msg),
        9 => DbError::Type(msg),
        10 => DbError::UnboundParam(msg),
        11 => DbError::NoSuchFunction(msg),
        12 => DbError::Auth(msg),
        13 => DbError::Denied(msg),
        14 => DbError::Txn(msg),
        15 => DbError::NoSuchUser(msg),
        16 => DbError::NoSuchDatabase(msg),
        17 => DbError::Protocol(msg),
        18 => DbError::Session(msg),
        _ => DbError::Internal(msg),
    }
}

// --- value encoding -----------------------------------------------------

wire_enum! {
    /// First byte of an encoded [`Value`].
    enum ValueTag: u8 {
        Null = 0,
        Integer = 1,
        BigInt = 2,
        Varchar = 3,
        Blob = 4,
        Timestamp = 5,
        Boolean = 6,
    }
}

/// Encodes one [`Value`].
pub fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(ValueTag::Null.code()),
        Value::Integer(n) => {
            buf.put_u8(ValueTag::Integer.code());
            buf.put_i64_le(*n);
        }
        Value::BigInt(n) => {
            buf.put_u8(ValueTag::BigInt.code());
            buf.put_i64_le(*n);
        }
        Value::Varchar(s) => {
            buf.put_u8(ValueTag::Varchar.code());
            put_str(buf, s);
        }
        Value::Blob(b) => {
            buf.put_u8(ValueTag::Blob.code());
            put_bytes(buf, b);
        }
        Value::Timestamp(n) => {
            buf.put_u8(ValueTag::Timestamp.code());
            buf.put_i64_le(*n);
        }
        Value::Boolean(b) => {
            buf.put_u8(ValueTag::Boolean.code());
            buf.put_u8(u8::from(*b));
        }
    }
}

/// Decodes one [`Value`].
///
/// # Errors
///
/// [`CodecError`] on truncation or an unknown tag.
pub fn get_value(buf: &mut Bytes) -> Result<Value, CodecError> {
    match get_code(buf, "value tag", ValueTag::from_code)? {
        ValueTag::Null => Ok(Value::Null),
        ValueTag::Integer => Ok(Value::Integer(get_i64(buf, "integer")?)),
        ValueTag::BigInt => Ok(Value::BigInt(get_i64(buf, "bigint")?)),
        ValueTag::Varchar => Ok(Value::Varchar(get_str(buf, "varchar")?)),
        ValueTag::Blob => Ok(Value::Blob(get_bytes(buf, "blob")?.to_vec().into())),
        ValueTag::Timestamp => Ok(Value::Timestamp(get_i64(buf, "timestamp")?)),
        ValueTag::Boolean => Ok(Value::Boolean(get_u8(buf, "boolean")? != 0)),
    }
}

// --- message encoding ---------------------------------------------------

wire_enum! {
    /// First byte of a [`ClientMsg`] frame.
    enum ClientTag: u8 {
        Hello = 0,
        ChallengeAnswer = 1,
        Query = 2,
        QueryParams = 3,
        Ping = 4,
        Close = 5,
    }
}

wire_enum! {
    /// First byte of a [`ServerMsg`] frame.
    enum ServerTag: u8 {
        HelloOk = 0,
        ChallengeNonce = 1,
        Rows = 2,
        Affected = 3,
        Pong = 4,
        Closed = 5,
        Error = 6,
    }
}

impl ClientMsg {
    /// Serializes the message.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        match self {
            ClientMsg::Hello {
                proto,
                database,
                user,
                auth,
            } => {
                b.put_u8(ClientTag::Hello.code());
                b.put_u16_le(*proto);
                put_str(&mut b, database);
                put_str(&mut b, user);
                match auth {
                    ClientAuth::Password(p) => {
                        b.put_u8(AuthMethod::Password.code());
                        put_str(&mut b, p);
                    }
                    ClientAuth::Challenge => b.put_u8(AuthMethod::Challenge.code()),
                    ClientAuth::Token(t) => {
                        b.put_u8(AuthMethod::Token.code());
                        b.put_u64_le(*t);
                    }
                }
            }
            ClientMsg::ChallengeAnswer { session, response } => {
                b.put_u8(ClientTag::ChallengeAnswer.code());
                b.put_u64_le(*session);
                b.put_u64_le(*response);
            }
            ClientMsg::Query { session, sql } => {
                b.put_u8(ClientTag::Query.code());
                b.put_u64_le(*session);
                put_str(&mut b, sql);
            }
            ClientMsg::QueryParams {
                session,
                sql,
                params,
            } => {
                b.put_u8(ClientTag::QueryParams.code());
                b.put_u64_le(*session);
                put_str(&mut b, sql);
                b.put_u16_le(params.len() as u16);
                for (k, v) in params {
                    put_str(&mut b, k);
                    put_value(&mut b, v);
                }
            }
            ClientMsg::Ping { session } => {
                b.put_u8(ClientTag::Ping.code());
                b.put_u64_le(*session);
            }
            ClientMsg::Close { session } => {
                b.put_u8(ClientTag::Close.code());
                b.put_u64_le(*session);
            }
        }
        b.freeze()
    }

    /// Deserializes a message.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on malformed frames.
    pub fn decode(mut buf: Bytes) -> Result<Self, CodecError> {
        match get_code(&mut buf, "client msg tag", ClientTag::from_code)? {
            ClientTag::Hello => {
                let proto = get_u16(&mut buf, "proto")?;
                let database = get_str(&mut buf, "database")?;
                let user = get_str(&mut buf, "user")?;
                let auth = match get_code(&mut buf, "auth tag", AuthMethod::from_code)? {
                    AuthMethod::Password => ClientAuth::Password(get_str(&mut buf, "password")?),
                    AuthMethod::Challenge => ClientAuth::Challenge,
                    AuthMethod::Token => ClientAuth::Token(get_u64(&mut buf, "token")?),
                };
                Ok(ClientMsg::Hello {
                    proto,
                    database,
                    user,
                    auth,
                })
            }
            ClientTag::ChallengeAnswer => Ok(ClientMsg::ChallengeAnswer {
                session: get_u64(&mut buf, "session")?,
                response: get_u64(&mut buf, "response")?,
            }),
            ClientTag::Query => Ok(ClientMsg::Query {
                session: get_u64(&mut buf, "session")?,
                sql: get_str(&mut buf, "sql")?,
            }),
            ClientTag::QueryParams => {
                let session = get_u64(&mut buf, "session")?;
                let sql = get_str(&mut buf, "sql")?;
                let n = get_u16(&mut buf, "param count")?;
                // A parameter is at least a name prefix and a value tag.
                let params = get_items(&mut buf, "params", n.into(), 5, |buf| {
                    Ok::<_, CodecError>((get_str(buf, "param name")?, get_value(buf)?))
                })?;
                Ok(ClientMsg::QueryParams {
                    session,
                    sql,
                    params,
                })
            }
            ClientTag::Ping => Ok(ClientMsg::Ping {
                session: get_u64(&mut buf, "session")?,
            }),
            ClientTag::Close => Ok(ClientMsg::Close {
                session: get_u64(&mut buf, "session")?,
            }),
        }
    }
}

impl ServerMsg {
    /// Serializes the message.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        match self {
            ServerMsg::HelloOk { session } => {
                b.put_u8(ServerTag::HelloOk.code());
                b.put_u64_le(*session);
            }
            ServerMsg::ChallengeNonce { session, nonce } => {
                b.put_u8(ServerTag::ChallengeNonce.code());
                b.put_u64_le(*session);
                b.put_u64_le(*nonce);
            }
            ServerMsg::Rows(rs) => {
                b.put_u8(ServerTag::Rows.code());
                b.put_u16_le(rs.columns.len() as u16);
                for c in &rs.columns {
                    put_str(&mut b, c);
                }
                b.put_u32_le(rs.rows.len() as u32);
                for row in &rs.rows {
                    for v in row {
                        put_value(&mut b, v);
                    }
                }
            }
            ServerMsg::Affected(n) => {
                b.put_u8(ServerTag::Affected.code());
                b.put_u64_le(*n);
            }
            ServerMsg::Pong => b.put_u8(ServerTag::Pong.code()),
            ServerMsg::Closed => b.put_u8(ServerTag::Closed.code()),
            ServerMsg::Error { code, msg } => {
                b.put_u8(ServerTag::Error.code());
                b.put_u16_le(*code);
                put_str(&mut b, msg);
            }
        }
        b.freeze()
    }

    /// Deserializes a message.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on malformed frames.
    pub fn decode(mut buf: Bytes) -> Result<Self, CodecError> {
        match get_code(&mut buf, "server msg tag", ServerTag::from_code)? {
            ServerTag::HelloOk => Ok(ServerMsg::HelloOk {
                session: get_u64(&mut buf, "session")?,
            }),
            ServerTag::ChallengeNonce => Ok(ServerMsg::ChallengeNonce {
                session: get_u64(&mut buf, "session")?,
                nonce: get_u64(&mut buf, "nonce")?,
            }),
            ServerTag::Rows => {
                let ncols = get_u16(&mut buf, "column count")?;
                let columns = get_items(&mut buf, "columns", ncols.into(), 4, |buf| {
                    get_str(buf, "column name")
                })?;
                let nrows = get_u32(&mut buf, "row count")?;
                // A row is one value tag per column at least. A row of no
                // columns would occupy no bytes, and no statement selects
                // one: `get_items` refuses any count of zero-byte items.
                let rows = get_items(&mut buf, "rows", nrows, ncols.into(), |buf| {
                    get_items(buf, "row cells", ncols.into(), 1, get_value)
                })?;
                Ok(ServerMsg::Rows(RowSet { columns, rows }))
            }
            ServerTag::Affected => Ok(ServerMsg::Affected(get_u64(&mut buf, "affected")?)),
            ServerTag::Pong => Ok(ServerMsg::Pong),
            ServerTag::Closed => Ok(ServerMsg::Closed),
            ServerTag::Error => Ok(ServerMsg::Error {
                code: get_u16(&mut buf, "error code")?,
                msg: get_str(&mut buf, "error msg")?,
            }),
        }
    }

    /// Converts the message into a [`QueryResult`].
    ///
    /// # Errors
    ///
    /// The transported [`DbError`] for error messages;
    /// [`DbError::Protocol`] for non-result messages.
    pub fn into_result(self) -> Result<QueryResult, DbError> {
        match self {
            ServerMsg::Rows(rs) => Ok(QueryResult::Rows(rs)),
            ServerMsg::Affected(n) => Ok(QueryResult::Affected(n)),
            ServerMsg::Error { code, msg } => Err(err_from(code, msg)),
            other => Err(DbError::Protocol(format!(
                "unexpected server message {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    #[test]
    fn client_messages_roundtrip() {
        let msgs = vec![
            ClientMsg::Hello {
                proto: V2,
                database: "db".into(),
                user: "bob".into(),
                auth: ClientAuth::Password("pw".into()),
            },
            ClientMsg::Hello {
                proto: V3,
                database: "db".into(),
                user: "bob".into(),
                auth: ClientAuth::Challenge,
            },
            ClientMsg::Hello {
                proto: V3,
                database: "db".into(),
                user: "bob".into(),
                auth: ClientAuth::Token(42),
            },
            ClientMsg::ChallengeAnswer {
                session: 7,
                response: 99,
            },
            ClientMsg::Query {
                session: 7,
                sql: "SELECT 1".into(),
            },
            ClientMsg::QueryParams {
                session: 7,
                sql: "SELECT $a".into(),
                params: vec![
                    ("a".into(), Value::BigInt(1)),
                    ("b".into(), Value::Blob(vec![1, 2].into())),
                    ("c".into(), Value::Null),
                ],
            },
            ClientMsg::Ping { session: 7 },
            ClientMsg::Close { session: 7 },
        ];
        let tags: BTreeSet<u8> = msgs.iter().map(|m| m.encode()[0]).collect();
        let all = (0..=u8::MAX).filter_map(ClientTag::from_code);
        assert_eq!(tags, all.map(ClientTag::code).collect());
        for m in msgs {
            assert_eq!(ClientMsg::decode(m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn server_messages_roundtrip() {
        let msgs = vec![
            ServerMsg::HelloOk { session: 1 },
            ServerMsg::ChallengeNonce {
                session: 1,
                nonce: 5,
            },
            ServerMsg::Rows(RowSet {
                columns: vec!["a".into(), "b".into()],
                rows: vec![
                    vec![Value::Integer(1), Value::str("x")],
                    vec![Value::Null, Value::Boolean(true)],
                ],
            }),
            ServerMsg::Rows(RowSet {
                columns: vec!["a".into()],
                rows: Vec::new(),
            }),
            ServerMsg::Affected(3),
            ServerMsg::Pong,
            ServerMsg::Closed,
            ServerMsg::Error {
                code: 12,
                msg: "authentication failed: nope".into(),
            },
        ];
        let tags: BTreeSet<u8> = msgs.iter().map(|m| m.encode()[0]).collect();
        let all = (0..=u8::MAX).filter_map(ServerTag::from_code);
        assert_eq!(tags, all.map(ServerTag::code).collect());
        for m in msgs {
            assert_eq!(ServerMsg::decode(m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn error_codes_roundtrip() {
        for c in 0..=20 {
            let e = err_from(c, "x".into());
            if (1..=19).contains(&c) {
                assert_eq!(err_code(&e), c, "{e:?}");
            } else {
                assert!(matches!(e, DbError::Internal(_)), "{c}: {e:?}");
            }
        }
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let enc = ClientMsg::Query {
            session: 1,
            sql: "SELECT 1".into(),
        }
        .encode();
        let truncated = enc.slice(0..enc.len() - 2);
        assert!(ClientMsg::decode(truncated).is_err());
        assert!(ServerMsg::decode(Bytes::from_static(&[99])).is_err());
    }

    #[test]
    fn hostile_counts_are_typed_errors() {
        // `[2, 0,0, ff,ff,ff,ff]`: no columns, four billion rows. Zero-byte
        // rows cannot be counted, so this is malformed — it used to
        // reserve u32::MAX row headers (≈ 103 GB) and abort.
        let rows = Bytes::from_static(&[2, 0, 0, 0xff, 0xff, 0xff, 0xff]);
        assert!(ServerMsg::decode(rows).is_err());
        // One row of no columns is just as malformed; no row of no
        // columns is the empty result and still decodes.
        assert!(ServerMsg::decode(Bytes::from_static(&[2, 0, 0, 1, 0, 0, 0])).is_err());
        let empty = RowSet {
            columns: Vec::new(),
            rows: Vec::new(),
        };
        let frame = Bytes::from_static(&[2, 0, 0, 0, 0, 0, 0]);
        assert_eq!(ServerMsg::decode(frame), Ok(ServerMsg::Rows(empty)));
        // Column, row and parameter counts past what the frame holds.
        let mut cols = BytesMut::new();
        cols.put_u8(2);
        cols.put_u16_le(u16::MAX);
        put_str(&mut cols, "a");
        assert!(ServerMsg::decode(cols.freeze()).is_err());
        let mut rows = BytesMut::new();
        rows.put_u8(2);
        rows.put_u16_le(1);
        put_str(&mut rows, "a");
        rows.put_u32_le(u32::MAX);
        put_value(&mut rows, &Value::Integer(1));
        assert!(ServerMsg::decode(rows.freeze()).is_err());
        let mut params = BytesMut::new();
        params.put_u8(3);
        params.put_u64_le(7);
        put_str(&mut params, "SELECT $a");
        params.put_u16_le(u16::MAX);
        put_str(&mut params, "a");
        put_value(&mut params, &Value::Null);
        assert!(ClientMsg::decode(params.freeze()).is_err());
    }

    #[test]
    fn into_result_maps_errors() {
        let r = ServerMsg::Error {
            code: err_code(&DbError::Auth(String::new())),
            msg: "bad password".into(),
        }
        .into_result();
        assert!(matches!(r, Err(DbError::Auth(m)) if m == "bad password"));
        assert!(ServerMsg::Pong.into_result().is_err());
    }
}
