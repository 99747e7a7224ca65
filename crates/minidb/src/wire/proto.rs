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

use bytes::{Bytes, BytesMut};

use netsim::codec::{encode, get_items, wire_frame, Capped, CodecError, Wire, WireAs};

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

wire_frame! {
    /// Client credentials presented in `Hello`. The tag of each is the
    /// [`AuthMethod`] a database may require.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum ClientAuth: pub AuthMethod(u8) {
        /// Cleartext password (any version).
        Password(String) = 0,
        /// Nonce/response challenge (v2+): request a nonce, answer it in
        /// [`ClientMsg::ChallengeAnswer`].
        Challenge = 1,
        /// Realm token, Kerberos-like (v3+).
        Token(u64) = 2,
    }
}

wire_frame! {
    /// Messages from client to server.
    #[derive(Clone, Debug, PartialEq)]
    pub enum ClientMsg: ClientTag(u8) {
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
        } = 0,
        /// Answer to a challenge nonce.
        ChallengeAnswer {
            /// Session being authenticated.
            session: u64,
            /// `weak_hash(password || nonce)`.
            response: u64,
        } = 1,
        /// Plain SQL (all versions).
        Query {
            /// Session id.
            session: u64,
            /// SQL text.
            sql: String,
        } = 2,
        /// Parameterized SQL (v2+).
        QueryParams {
            /// Session id.
            session: u64,
            /// SQL text with `$name`/`?` placeholders.
            sql: String,
            /// Bound parameters.
            params: Vec<(String, Value)> as Capped<u16>,
        } = 3,
        /// Liveness probe.
        Ping {
            /// Session id.
            session: u64,
        } = 4,
        /// Close the session.
        Close {
            /// Session id.
            session: u64,
        } = 5,
    }
}

wire_frame! {
    /// Messages from server to client.
    #[derive(Clone, Debug, PartialEq)]
    pub enum ServerMsg: ServerTag(u8) {
        /// Session established.
        HelloOk {
            /// Assigned session id.
            session: u64,
        } = 0,
        /// Challenge nonce for [`ClientAuth::Challenge`].
        ChallengeNonce {
            /// Session id (pre-authentication).
            session: u64,
            /// Nonce to digest with the password.
            nonce: u64,
        } = 1,
        /// SELECT result.
        Rows(RowSet) = 2,
        /// DML/DDL result.
        Affected(u64) = 3,
        /// Ping reply.
        Pong = 4,
        /// Close acknowledgement.
        Closed = 5,
        /// Structured error.
        Error {
            /// Stable error code (see [`err_code`]).
            code: u16,
            /// Human-readable message.
            msg: String,
        } = 6,
    }
}

/// Declares the [`DbError`] ↔ wire code table once; [`err_code`] and
/// [`err_from`] are both read off it.
macro_rules! err_codes {
    ($($variant:ident = $code:literal,)+) => {
        /// Maps a [`DbError`] to a stable wire code.
        pub fn err_code(e: &DbError) -> u16 {
            match e {
                $(DbError::$variant(_) => $code,)+
            }
        }

        /// Reconstructs a [`DbError`] from a wire code and message; a code
        /// this side does not know is [`DbError::Internal`].
        pub fn err_from(code: u16, msg: String) -> DbError {
            match code {
                $($code => DbError::$variant(msg),)+
                _ => DbError::Internal(msg),
            }
        }
    };
}

err_codes! {
    Lex = 1,
    Parse = 2,
    NoSuchTable = 3,
    NoSuchColumn = 4,
    TableExists = 5,
    Constraint = 6,
    DuplicateKey = 7,
    ForeignKey = 8,
    Type = 9,
    UnboundParam = 10,
    NoSuchFunction = 11,
    Auth = 12,
    Denied = 13,
    Txn = 14,
    NoSuchUser = 15,
    NoSuchDatabase = 16,
    Protocol = 17,
    Session = 18,
    Internal = 19,
}

type Columns = Capped<u16>;

/// The rows a row set writes, each cut to the columns it writes: as many
/// as their `u32` and `u16` counts hold.
fn written(set: &RowSet) -> impl Iterator<Item = &[Value]> {
    let width = set.columns.len().min(u16::MAX.into());
    let rows = usize::try_from(u32::MAX).unwrap_or(usize::MAX);
    (set.rows.iter().take(rows)).map(move |row| row.get(..width).unwrap_or(row))
}

/// A row set: the column names, a `u32` row count, then each row's
/// values, one per column. A row of no columns would occupy no bytes, and
/// no statement selects one: [`get_items`] refuses any count of
/// zero-byte rows.
impl Wire for RowSet {
    const MIN_BYTES: usize = 2 + 4;

    fn wire_len(&self) -> usize {
        let cells = written(self).flatten();
        Columns::wire_len(&self.columns) + 4 + cells.map(Wire::wire_len).sum::<usize>()
    }

    fn put(&self, buf: &mut BytesMut) {
        Columns::put(&self.columns, buf);
        let n = u32::try_from(self.rows.len()).unwrap_or(u32::MAX);
        n.put(buf);
        for row in written(self) {
            for value in row {
                value.put(buf);
            }
        }
    }

    fn get(buf: &mut Bytes, _: &str) -> Result<Self, CodecError> {
        let columns = Columns::get(buf, "RowSet.columns")?;
        let n = u32::get(buf, "RowSet.rows")?;
        let width = columns.len();
        let cells = u32::try_from(width).unwrap_or(u32::MAX);
        let rows = get_items(buf, "RowSet.rows", n, width * Value::MIN_BYTES, |buf| {
            get_items(buf, "RowSet.row", cells, Value::MIN_BYTES, |buf| {
                Value::get(buf, "RowSet.cell")
            })
        })?;
        Ok(RowSet { columns, rows })
    }
}

impl ClientMsg {
    /// Serializes the message.
    pub fn encode(&self) -> Bytes {
        encode(self)
    }

    /// Deserializes a message.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on malformed frames.
    pub fn decode(mut buf: Bytes) -> Result<Self, CodecError> {
        Self::get(&mut buf, "client msg")
    }
}

impl ServerMsg {
    /// Serializes the message.
    pub fn encode(&self) -> Bytes {
        encode(self)
    }

    /// Deserializes a message.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on malformed frames.
    pub fn decode(mut buf: Bytes) -> Result<Self, CodecError> {
        Self::get(&mut buf, "server msg")
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

    use bytes::BufMut;
    use netsim::codec::put_str;

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
        Value::Integer(1).put(&mut rows);
        assert!(ServerMsg::decode(rows.freeze()).is_err());
        let mut params = BytesMut::new();
        params.put_u8(3);
        params.put_u64_le(7);
        put_str(&mut params, "SELECT $a");
        params.put_u16_le(u16::MAX);
        put_str(&mut params, "a");
        Value::Null.put(&mut params);
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
