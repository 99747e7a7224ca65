//! Minimal length-prefixed binary codec helpers.
//!
//! Every wire protocol in this workspace (the Drivolution bootstrap
//! protocol, the minidb client/server protocol, the cluster group
//! protocol) is hand-rolled on top of these primitives: little-endian
//! fixed-width integers and `u32`-length-prefixed byte strings.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use std::error::Error;
use std::fmt;

/// Error produced when decoding a malformed frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    context: String,
}

impl CodecError {
    /// Creates a decode error with a short context description.
    pub fn new(context: impl Into<String>) -> Self {
        CodecError {
            context: context.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed frame: {}", self.context)
    }
}

impl Error for CodecError {}

/// Writes a `u32`-length-prefixed byte string.
pub fn put_bytes(buf: &mut BytesMut, b: &[u8]) {
    buf.put_u32_le(b.len() as u32);
    buf.put_slice(b);
}

/// Writes a `u32`-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Writes an `Option<&str>`: presence byte then the string.
pub fn put_opt_str(buf: &mut BytesMut, s: Option<&str>) {
    match s {
        Some(s) => {
            buf.put_u8(1);
            put_str(buf, s);
        }
        None => buf.put_u8(0),
    }
}

/// Reads one byte.
///
/// # Errors
///
/// [`CodecError`] on underflow.
pub fn get_u8(buf: &mut Bytes, what: &str) -> Result<u8, CodecError> {
    if buf.remaining() < 1 {
        return Err(CodecError::new(format!("{what}: need 1 byte")));
    }
    Ok(buf.get_u8())
}

/// Reads a little-endian `u16`.
///
/// # Errors
///
/// [`CodecError`] on underflow.
pub fn get_u16(buf: &mut Bytes, what: &str) -> Result<u16, CodecError> {
    if buf.remaining() < 2 {
        return Err(CodecError::new(format!("{what}: need 2 bytes")));
    }
    Ok(buf.get_u16_le())
}

/// Reads a little-endian `u32`.
///
/// # Errors
///
/// [`CodecError`] on underflow.
pub fn get_u32(buf: &mut Bytes, what: &str) -> Result<u32, CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::new(format!("{what}: need 4 bytes")));
    }
    Ok(buf.get_u32_le())
}

/// Reads a little-endian `u64`.
///
/// # Errors
///
/// [`CodecError`] on underflow.
pub fn get_u64(buf: &mut Bytes, what: &str) -> Result<u64, CodecError> {
    if buf.remaining() < 8 {
        return Err(CodecError::new(format!("{what}: need 8 bytes")));
    }
    Ok(buf.get_u64_le())
}

/// Reads a little-endian `i64`.
///
/// # Errors
///
/// [`CodecError`] on underflow.
pub fn get_i64(buf: &mut Bytes, what: &str) -> Result<i64, CodecError> {
    if buf.remaining() < 8 {
        return Err(CodecError::new(format!("{what}: need 8 bytes")));
    }
    Ok(buf.get_i64_le())
}

/// Reads a `u32`-length-prefixed byte string.
///
/// # Errors
///
/// [`CodecError`] on underflow or a length prefix exceeding the buffer.
pub fn get_bytes(buf: &mut Bytes, what: &str) -> Result<Bytes, CodecError> {
    let len = get_u32(buf, what)? as usize;
    if buf.remaining() < len {
        return Err(CodecError::new(format!(
            "{what}: length prefix {len} exceeds remaining {}",
            buf.remaining()
        )));
    }
    Ok(buf.split_to(len))
}

/// Reads a `u32`-length-prefixed UTF-8 string.
///
/// # Errors
///
/// [`CodecError`] on underflow or invalid UTF-8.
pub fn get_str(buf: &mut Bytes, what: &str) -> Result<String, CodecError> {
    let b = get_bytes(buf, what)?;
    String::from_utf8(b.to_vec()).map_err(|_| CodecError::new(format!("{what}: invalid utf-8")))
}

/// Reads an `Option<String>` written by [`put_opt_str`].
///
/// # Errors
///
/// [`CodecError`] on underflow or an invalid presence byte.
pub fn get_opt_str(buf: &mut Bytes, what: &str) -> Result<Option<String>, CodecError> {
    match get_u8(buf, what)? {
        0 => Ok(None),
        1 => Ok(Some(get_str(buf, what)?)),
        n => Err(CodecError::new(format!("{what}: bad presence byte {n}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut b = BytesMut::new();
        b.put_u8(7);
        b.put_u16_le(300);
        b.put_u32_le(70_000);
        b.put_u64_le(1 << 40);
        b.put_i64_le(-42);
        put_str(&mut b, "héllo");
        put_bytes(&mut b, &[1, 2, 3]);
        put_opt_str(&mut b, None);
        put_opt_str(&mut b, Some("x"));

        let mut r = b.freeze();
        assert_eq!(get_u8(&mut r, "a").unwrap(), 7);
        assert_eq!(get_u16(&mut r, "b").unwrap(), 300);
        assert_eq!(get_u32(&mut r, "c").unwrap(), 70_000);
        assert_eq!(get_u64(&mut r, "d").unwrap(), 1 << 40);
        assert_eq!(get_i64(&mut r, "e").unwrap(), -42);
        assert_eq!(get_str(&mut r, "f").unwrap(), "héllo");
        assert_eq!(
            get_bytes(&mut r, "g").unwrap(),
            Bytes::from_static(&[1, 2, 3])
        );
        assert_eq!(get_opt_str(&mut r, "h").unwrap(), None);
        assert_eq!(get_opt_str(&mut r, "i").unwrap(), Some("x".to_string()));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn underflow_is_reported_with_context() {
        let mut r = Bytes::from_static(&[1]);
        let e = get_u32(&mut r, "session id").unwrap_err();
        assert!(e.to_string().contains("session id"));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut b = BytesMut::new();
        b.put_u32_le(100);
        b.put_slice(&[0; 10]);
        let mut r = b.freeze();
        assert!(get_bytes(&mut r, "blob").is_err());
    }

    #[test]
    fn bad_presence_byte_is_rejected() {
        let mut r = Bytes::from_static(&[9]);
        assert!(get_opt_str(&mut r, "opt").is_err());
    }
}
