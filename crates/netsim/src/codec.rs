//! Minimal length-prefixed binary codec helpers.
//!
//! Every wire protocol in this workspace (the Drivolution bootstrap
//! protocol, the minidb client/server protocol, the cluster group
//! protocol) is hand-rolled on top of these primitives: little-endian
//! fixed-width integers and `u32`-length-prefixed byte strings.
//!
//! Two rules are enforced here and nowhere else. A count read off
//! the wire goes through [`get_items`] ([`get_u64s`] for digest lists),
//! which refuses a count the rest of the frame cannot hold *before* it
//! allocates: capacity follows bytes held, never the number read. A
//! presence byte goes through [`get_opt`] ([`get_opt_str`] for strings):
//! `0` absent, `1` present, anything else malformed. A tag or code byte
//! names a variant of an enum declared once through [`wire_enum!`].

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

/// Writes `items` as little-endian `u64`s, without a count (the count's
/// width is the frame's business; [`get_u64s`] reads them back).
pub fn put_u64s(buf: &mut BytesMut, items: &[u64]) {
    for d in items {
        buf.put_u64_le(*d);
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
    get_opt(buf, what, |buf| get_str(buf, what))
}

/// Reads a presence byte, then the value `item` decodes when it is `1`.
///
/// # Errors
///
/// [`CodecError`] (as `E`) on underflow or a presence byte other than
/// `0` / `1`; whatever `item` returns.
pub fn get_opt<T, E: From<CodecError>>(
    buf: &mut Bytes,
    what: &str,
    item: impl FnOnce(&mut Bytes) -> Result<T, E>,
) -> Result<Option<T>, E> {
    match get_u8(buf, what)? {
        0 => Ok(None),
        1 => item(buf).map(Some),
        n => Err(CodecError::new(format!("{what}: bad presence byte {n}")).into()),
    }
}

/// Reads the `n` items of a counted field, `n` being the count the
/// caller just read off the wire and `min_item_bytes` the shortest
/// encoding of one item. The count is checked against the bytes left
/// before anything is reserved, by division, so no product can overflow.
/// An item of zero bytes cannot be bounded by its frame: with
/// `min_item_bytes == 0` only `n == 0` is accepted.
///
/// # Errors
///
/// [`CodecError`] (as `E`) when the frame cannot hold `n` items;
/// whatever `item` returns.
pub fn get_items<T, E: From<CodecError>>(
    buf: &mut Bytes,
    what: &str,
    n: u32,
    min_item_bytes: usize,
    mut item: impl FnMut(&mut Bytes) -> Result<T, E>,
) -> Result<Vec<T>, E> {
    let fits = buf.remaining().checked_div(min_item_bytes).unwrap_or(0);
    let count = usize::try_from(n).ok().filter(|&n| n <= fits);
    let count = count.ok_or_else(|| {
        CodecError::new(format!(
            "{what}: count {n} exceeds frame ({} bytes left, {min_item_bytes} per item)",
            buf.remaining()
        ))
    })?;
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        items.push(item(buf)?);
    }
    Ok(items)
}

/// Reads `n` little-endian `u64`s written by [`put_u64s`].
///
/// # Errors
///
/// As [`get_items`] with 8-byte items.
pub fn get_u64s(buf: &mut Bytes, what: &str, n: u32) -> Result<Vec<u64>, CodecError> {
    get_items(buf, what, n, 8, |buf| get_u64(buf, what))
}

/// Reads a one-byte code and maps it through `from_code` (a
/// [`wire_enum!`]'s).
///
/// # Errors
///
/// [`CodecError`] on underflow or a code `from_code` does not know.
pub fn get_code<T>(
    buf: &mut Bytes,
    what: &str,
    from_code: impl FnOnce(u8) -> Option<T>,
) -> Result<T, CodecError> {
    let c = get_u8(buf, what)?;
    from_code(c).ok_or_else(|| CodecError::new(format!("unknown {what} {c}")))
}

/// Declares a fieldless wire enum once: the enum under `#[repr(R)]`, its
/// `code(self) -> R` and its `from_code(R) -> Option<Self>`, both read
/// off the one list of `Variant = code` lines, so they cannot drift
/// apart. Derives stay at the call site.
///
/// ```
/// netsim::codec::wire_enum! {
///     #[derive(Clone, Copy, Debug, PartialEq)]
///     pub enum Method: i8 { Any = -1, Plain = 0 }
/// }
/// assert_eq!(Method::Any.code(), -1);
/// assert_eq!(Method::from_code(0), Some(Method::Plain));
/// assert_eq!(Method::from_code(1), None);
/// ```
///
/// The compiler rejects two variants with one code (E0081):
///
/// ```compile_fail,E0081
/// netsim::codec::wire_enum! {
///     enum Tag: u8 { Request = 0, Offer = 0 }
/// }
/// ```
///
/// and a decoder that matches `from_code` with no `_` arm rejects a
/// variant it has no arm for (E0004):
///
/// ```compile_fail,E0004
/// netsim::codec::wire_enum! {
///     enum Tag: u8 { Request = 0, Offer = 1 }
/// }
/// fn decode(byte: u8) -> &'static str {
///     match Tag::from_code(byte) {
///         Some(Tag::Request) => "request",
///         None => "unknown",
///     }
/// }
/// ```
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident : $repr:ident {
            $($(#[$vmeta:meta])* $variant:ident = $code:literal),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[repr($repr)]
        $vis enum $name {
            $($(#[$vmeta])* $variant = $code,)+
        }

        impl $name {
            /// The wire code.
            $vis const fn code(self) -> $repr {
                self as $repr
            }

            /// The variant whose wire code is `c`.
            $vis const fn from_code(c: $repr) -> Option<Self> {
                match c {
                    $($code => Some($name::$variant),)+
                    _ => None,
                }
            }
        }
    };
}
pub use wire_enum;

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
        let mut r = Bytes::from_static(&[2, 0, 0, 0, 0, 0, 0, 0, 0]);
        let e = get_opt(&mut r, "digest", |b| get_u64(b, "digest")).unwrap_err();
        assert!(e.to_string().contains("bad presence byte 2"));
        let mut r = Bytes::from_static(&[1, 7, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(get_opt(&mut r, "d", |b| get_u64(b, "d")), Ok(Some(7)));
        assert_eq!(get_opt(&mut r, "d", |b| get_u64(b, "d")), Ok(None));
    }

    #[test]
    fn u64_lists_roundtrip_and_leave_the_rest() {
        let mut b = BytesMut::new();
        put_u64s(&mut b, &[1, 2, 3]);
        b.put_u8(9);
        let mut r = b.freeze();
        assert_eq!(get_u64s(&mut r, "digests", 3).unwrap(), vec![1, 2, 3]);
        assert_eq!(get_u8(&mut r, "tail").unwrap(), 9);
        assert_eq!(get_u64s(&mut r, "digests", 0).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn a_count_the_frame_cannot_hold_is_rejected_before_allocating() {
        // 17 bytes hold two 8-byte items, not three; nothing is consumed
        // or decoded on the way to the error.
        let frame = Bytes::from(vec![0u8; 17]);
        let calls = std::cell::Cell::new(0);
        let mut item = |b: &mut Bytes| {
            calls.set(calls.get() + 1);
            get_u64(b, "item")
        };
        let mut r = frame.clone();
        let e = get_items(&mut r, "list", 3, 8, &mut item).unwrap_err();
        assert!(e.to_string().contains("list: count 3 exceeds frame"));
        assert_eq!(r.remaining(), 17);
        assert_eq!(get_items(&mut r, "list", 2, 8, &mut item).unwrap().len(), 2);
        assert_eq!(calls.get(), 2);
        // Counts whose byte product wraps 32-bit (0x2000_0001 * 8 == 8) or
        // 64-bit (u32::MAX * usize::MAX) arithmetic: the check divides.
        for (n, min) in [(u32::MAX, 8), (0x2000_0001, 8), (u32::MAX, usize::MAX)] {
            let mut r = frame.clone();
            assert!(get_items(&mut r, "list", n, min, &mut item).is_err());
        }
        assert_eq!(calls.get(), 2);
    }

    #[test]
    fn zero_byte_items_cannot_be_counted() {
        let mut r = Bytes::from(vec![0u8; 64]);
        let unit = |_: &mut Bytes| Ok::<_, CodecError>(());
        assert_eq!(get_items(&mut r, "units", 0, 0, unit), Ok(Vec::new()));
        assert!(get_items(&mut r, "units", 1, 0, unit).is_err());
        assert!(get_items(&mut r, "units", u32::MAX, 0, unit).is_err());
    }

    #[test]
    fn an_item_error_propagates_in_the_callers_type() {
        #[derive(Debug, PartialEq)]
        enum E {
            Codec(String),
            Item(u8),
        }
        impl From<CodecError> for E {
            fn from(e: CodecError) -> Self {
                E::Codec(e.to_string())
            }
        }
        let item = |b: &mut Bytes| match get_u8(b, "item")? {
            3 => Err(E::Item(3)),
            n => Ok(n),
        };
        let mut r = Bytes::from_static(&[1, 2, 3, 4]);
        assert_eq!(get_items(&mut r, "list", 4, 1, item), Err(E::Item(3)));
        // The count check fails in the caller's type too, and the item
        // minimum is a floor, not a size: a short last item is the
        // item's own underflow.
        assert!(matches!(
            get_items(&mut r, "list", 9, 1, item),
            Err(E::Codec(_))
        ));
        let mut r = Bytes::from_static(&[1, 2, 3]);
        let wide = |b: &mut Bytes| Ok::<_, E>(get_u16(b, "wide")?);
        assert!(matches!(
            get_items(&mut r, "list", 2, 1, wide),
            Err(E::Codec(_))
        ));
    }
}
