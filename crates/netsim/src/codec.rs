//! Minimal length-prefixed binary codec helpers.
//!
//! Every wire protocol in this workspace (the Drivolution bootstrap
//! protocol, the minidb client/server protocol, the cluster group
//! protocol) is built on these primitives: little-endian fixed-width
//! integers and `u32`-length-prefixed byte strings. A frame is declared
//! once through [`wire_frame!`]: its field list is its layout, and each
//! field is written and read by its type's [`Wire`] impl.
//!
//! Two rules are enforced here and nowhere else. A count read off
//! the wire goes through [`get_items`] ([`Capped`] in a frame), which
//! refuses a count the rest of the frame cannot hold *before* it
//! allocates: capacity follows bytes held, never the number read. A presence byte is read by `Option`'s [`Wire`]
//! impl: `0` absent, `1` present, anything else malformed. A tag or code
//! byte names a variant of an enum declared once through [`wire_enum!`].
//! A list whose entries repeat an item ([`Interned`]) carries and decodes
//! each distinct item once. Every value knows the length of its encoding
//! ([`Wire::wire_len`]) before it is written, so [`encode`] allocates each
//! frame once, at its exact size.

use std::error::Error;
use std::fmt::{self, Write as _};
use std::marker::PhantomData;
use std::sync::Arc;

use bytes::{Buf, BufMut};
#[doc(hidden)]
pub use bytes::{Bytes, BytesMut};

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

/// Reads a `u32`-length-prefixed byte string.
///
/// # Errors
///
/// [`CodecError`] on underflow or a length prefix exceeding the buffer.
pub fn get_bytes(buf: &mut Bytes, what: &str) -> Result<Bytes, CodecError> {
    let len = u32::get(buf, what)? as usize;
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

/// The length [`put_display`] writes for `value`: its display form,
/// counted as it is formatted, and the prefix.
pub fn display_len(value: &impl fmt::Display) -> usize {
    struct Count(usize);
    impl fmt::Write for Count {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut count = Count(0);
    // The counter never fails.
    let _ = write!(count, "{value}");
    4 + count.0
}

/// Writes `value`'s display form as a `str`, formatted straight into
/// the frame rather than through a `String`.
pub fn put_display(buf: &mut BytesMut, value: &impl fmt::Display) {
    struct Sink<'a>(&'a mut BytesMut);
    impl fmt::Write for Sink<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.put_slice(s.as_bytes());
            Ok(())
        }
    }
    let at = buf.len();
    buf.put_u32_le(0);
    // The sink never fails.
    let _ = write!(Sink(buf), "{value}");
    let len = u32::try_from(buf.len() - at - 4).unwrap_or(u32::MAX);
    if let Some(prefix) = buf.get_mut(at..at + 4) {
        prefix.copy_from_slice(&len.to_le_bytes());
    }
}

/// Reads one `T` that is the whole of `buf`: a byte after its last
/// field is an error.
///
/// # Errors
///
/// [`CodecError`] when `buf` is not one encoding of a `T`.
pub fn get_whole<T: Wire>(mut buf: Bytes, what: &str) -> Result<T, CodecError> {
    let value = T::get(&mut buf, what)?;
    match buf.remaining() {
        0 => Ok(value),
        n => Err(CodecError::new(format!(
            "{what}: {n} bytes after the last field"
        ))),
    }
}

/// A value with one encoding: [`put`](Wire::put) writes it and
/// [`get`](Wire::get) reads it back. Implemented for the primitives of
/// `DESIGN.md` §2, every [`wire_enum!`] and every [`wire_frame!`].
pub trait Wire: Sized {
    /// Length of the shortest encoding: what [`get_items`] holds a count
    /// of these against.
    const MIN_BYTES: usize;

    /// Length of this value's encoding: what [`put`](Wire::put) appends.
    fn wire_len(&self) -> usize;

    /// Appends the encoding.
    fn put(&self, buf: &mut BytesMut);

    /// Reads one value; `what` names it in the error.
    ///
    /// # Errors
    ///
    /// [`CodecError`] when `buf` does not start with an encoding.
    fn get(buf: &mut Bytes, what: &str) -> Result<Self, CodecError>;
}

/// The layout a field is written in: `field: T as L` in a [`wire_frame!`]
/// writes and reads its `T` through `L` ([`Capped`] for a counted list),
/// and a field with no `as` is written [`AsIs`].
pub trait WireAs<T> {
    /// Length of the shortest encoding.
    const MIN_BYTES: usize;

    /// Length of `value`'s encoding.
    fn wire_len(value: &T) -> usize;

    /// Appends `value`'s encoding.
    fn put(value: &T, buf: &mut BytesMut);

    /// Reads one value; `what` names it in the error.
    ///
    /// # Errors
    ///
    /// [`CodecError`] when `buf` does not start with an encoding.
    fn get(buf: &mut Bytes, what: &str) -> Result<T, CodecError>;
}

/// The layout of a field with no `as`: its type's own [`Wire`].
#[derive(Debug)]
pub struct AsIs;

impl<T: Wire> WireAs<T> for AsIs {
    const MIN_BYTES: usize = T::MIN_BYTES;

    fn wire_len(value: &T) -> usize {
        value.wire_len()
    }

    fn put(value: &T, buf: &mut BytesMut) {
        value.put(buf);
    }

    fn get(buf: &mut Bytes, what: &str) -> Result<T, CodecError> {
        T::get(buf, what)
    }
}

macro_rules! wire_int {
    ($($t:ty: $put:ident, $get:ident;)+) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();

            #[inline]
            fn wire_len(&self) -> usize {
                Self::MIN_BYTES
            }

            #[inline]
            fn put(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }

            #[inline]
            fn get(buf: &mut Bytes, what: &str) -> Result<Self, CodecError> {
                if buf.remaining() < Self::MIN_BYTES {
                    let need = Self::MIN_BYTES;
                    return Err(CodecError::new(format!("{what}: need {need} bytes")));
                }
                Ok(buf.$get())
            }
        }
    )+};
}

wire_int! {
    u8: put_u8, get_u8;
    i8: put_i8, get_i8;
    u16: put_u16_le, get_u16_le;
    u32: put_u32_le, get_u32_le;
    u64: put_u64_le, get_u64_le;
    i64: put_i64_le, get_i64_le;
}

/// `u8`: 0 is false, 1 is true, any other byte an error.
impl Wire for bool {
    const MIN_BYTES: usize = 1;

    #[inline]
    fn wire_len(&self) -> usize {
        1
    }

    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }

    #[inline]
    fn get(buf: &mut Bytes, what: &str) -> Result<Self, CodecError> {
        match u8::get(buf, what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::new(format!("{what}: bool byte {b:#04x}"))),
        }
    }
}

impl Wire for String {
    const MIN_BYTES: usize = 4;

    #[inline]
    fn wire_len(&self) -> usize {
        4 + self.len()
    }

    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        put_str(buf, self);
    }

    #[inline]
    fn get(buf: &mut Bytes, what: &str) -> Result<Self, CodecError> {
        get_str(buf, what)
    }
}

/// A slice of the frame it was read from.
impl Wire for Bytes {
    const MIN_BYTES: usize = 4;

    #[inline]
    fn wire_len(&self) -> usize {
        4 + self.len()
    }

    #[inline]
    fn put(&self, buf: &mut BytesMut) {
        put_bytes(buf, self);
    }

    #[inline]
    fn get(buf: &mut Bytes, what: &str) -> Result<Self, CodecError> {
        get_bytes(buf, what)
    }
}

/// `opt T`: a presence byte, `0` absent, `1` present and then the
/// value, anything else malformed.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;

    fn wire_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::wire_len)
    }

    fn put(&self, buf: &mut BytesMut) {
        match self {
            Some(v) => {
                buf.put_u8(1);
                v.put(buf);
            }
            None => buf.put_u8(0),
        }
    }

    fn get(buf: &mut Bytes, what: &str) -> Result<Self, CodecError> {
        match u8::get(buf, what)? {
            0 => Ok(None),
            1 => T::get(buf, what).map(Some),
            n => Err(CodecError::new(format!("{what}: bad presence byte {n}"))),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    fn wire_len(&self) -> usize {
        self.0.wire_len() + self.1.wire_len()
    }

    fn put(&self, buf: &mut BytesMut) {
        self.0.put(buf);
        self.1.put(buf);
    }

    fn get(buf: &mut Bytes, what: &str) -> Result<Self, CodecError> {
        Ok((A::get(buf, what)?, B::get(buf, what)?))
    }
}

/// A `u8` kind, `0` then the value or `1` then the error.
impl<T: Wire, E: Wire> Wire for Result<T, E> {
    const MIN_BYTES: usize = 1 + min_of(&[T::MIN_BYTES, E::MIN_BYTES]);

    fn wire_len(&self) -> usize {
        1 + match self {
            Ok(v) => v.wire_len(),
            Err(e) => e.wire_len(),
        }
    }

    fn put(&self, buf: &mut BytesMut) {
        match self {
            Ok(v) => {
                buf.put_u8(0);
                v.put(buf);
            }
            Err(e) => {
                buf.put_u8(1);
                e.put(buf);
            }
        }
    }

    fn get(buf: &mut Bytes, what: &str) -> Result<Self, CodecError> {
        match u8::get(buf, what)? {
            0 => T::get(buf, what).map(Ok),
            1 => E::get(buf, what).map(Err),
            k => Err(CodecError::new(format!("{what}: bad result kind {k}"))),
        }
    }
}

/// The width of a list's count.
pub trait Count: Wire + Copy + Into<u32> + TryFrom<usize> {
    /// The largest count the width holds.
    const MAX: Self;
}

impl Count for u16 {
    const MAX: Self = u16::MAX;
}

impl Count for u32 {
    const MAX: Self = u32::MAX;
}

/// The layout of a counted list (`Vec<T> as Capped<N>` in a
/// [`wire_frame!`]): its count as an `N`, then the items. A list longer
/// than `CAP`, or than `N` can count, is written as its first items, so
/// the count written is always the number of items written; a count past
/// `CAP` does not decode, and one the frame cannot hold does not
/// allocate ([`get_items`]).
#[derive(Debug)]
pub struct Capped<N, const CAP: usize = { usize::MAX }>(PhantomData<N>);

impl<N: Count, T: Wire, const CAP: usize> WireAs<Vec<T>> for Capped<N, CAP> {
    const MIN_BYTES: usize = N::MIN_BYTES;

    fn wire_len(items: &Vec<T>) -> usize {
        let items = Self::written(items);
        N::MIN_BYTES + items.iter().map(Wire::wire_len).sum::<usize>()
    }

    fn put(items: &Vec<T>, buf: &mut BytesMut) {
        let items = Self::written(items);
        N::try_from(items.len()).unwrap_or(N::MAX).put(buf);
        for item in items {
            item.put(buf);
        }
    }

    fn get(buf: &mut Bytes, what: &str) -> Result<Vec<T>, CodecError> {
        let n: u32 = N::get(buf, what)?.into();
        if usize::try_from(n).map_or(true, |n| n > CAP) {
            return Err(CodecError::new(format!(
                "{what}: count {n} exceeds the cap {CAP}"
            )));
        }
        get_items(buf, what, n, T::MIN_BYTES, |buf| T::get(buf, what))
    }
}

impl<N: Count, const CAP: usize> Capped<N, CAP> {
    /// The first items of `items`, as many as the layout counts.
    fn written<T>(items: &[T]) -> &[T] {
        let cap = usize::try_from(N::MAX.into()).map_or(CAP, |max| max.min(CAP));
        items.get(..cap).unwrap_or(items)
    }
}

/// An entry of an [`Interned`] list: an item it shares with other
/// entries, named on the wire by its index in the list's table, and
/// whatever travels beside the index in each entry.
pub trait Interns: Sized {
    /// The item entries share.
    type Item: Wire + PartialEq;

    /// Length of the shortest entry encoding, its index included.
    const MIN_BYTES: usize;

    /// The item this entry names.
    fn item(&self) -> &Arc<Self::Item>;

    /// Length of the entry with its item written as an index.
    fn wire_len(&self) -> usize;

    /// Appends the entry with its item written as `index`.
    fn put(&self, index: u32, buf: &mut BytesMut);

    /// Reads one entry; `item` turns the index read into its item.
    ///
    /// # Errors
    ///
    /// [`CodecError`] when `buf` does not start with an entry, or `item`
    /// refuses its index.
    fn get(
        buf: &mut Bytes,
        what: &str,
        item: impl FnOnce(u32) -> Result<Arc<Self::Item>, CodecError>,
    ) -> Result<Self, CodecError>;
}

/// An entry that is its item alone: the index.
impl<T: Wire + PartialEq> Interns for Arc<T> {
    type Item = T;
    const MIN_BYTES: usize = u32::MIN_BYTES;

    fn item(&self) -> &Arc<T> {
        self
    }

    fn wire_len(&self) -> usize {
        u32::MIN_BYTES
    }

    fn put(&self, index: u32, buf: &mut BytesMut) {
        index.put(buf);
    }

    fn get(
        buf: &mut Bytes,
        what: &str,
        item: impl FnOnce(u32) -> Result<Arc<T>, CodecError>,
    ) -> Result<Self, CodecError> {
        item(u32::get(buf, what)?)
    }
}

/// An entry with a value of its own: the value, then the index.
impl<A: Wire, T: Wire + PartialEq> Interns for (A, Arc<T>) {
    type Item = T;
    const MIN_BYTES: usize = A::MIN_BYTES + u32::MIN_BYTES;

    fn item(&self) -> &Arc<T> {
        &self.1
    }

    fn wire_len(&self) -> usize {
        self.0.wire_len() + u32::MIN_BYTES
    }

    fn put(&self, index: u32, buf: &mut BytesMut) {
        self.0.put(buf);
        index.put(buf);
    }

    fn get(
        buf: &mut Bytes,
        what: &str,
        item: impl FnOnce(u32) -> Result<Arc<T>, CodecError>,
    ) -> Result<Self, CodecError> {
        let own = A::get(buf, what)?;
        Ok((own, item(u32::get(buf, what)?)?))
    }
}

/// How many of the latest distinct items an [`Interned`] encoder holds
/// an entry's item against: enough for the few a batch frame repeats,
/// few enough that a frame of distinct items encodes in linear time.
const LOOK_BACK: usize = 8;

/// The last [`LOOK_BACK`] distinct items an [`Interned`] list wrote to
/// its table, each with its index there: what the next entry's item is
/// held against.
struct Recent<'a, T> {
    slots: [Option<(&'a Arc<T>, u32)>; LOOK_BACK],
    written: u32,
}

impl<'a, T: PartialEq> Recent<'a, T> {
    fn new() -> Self {
        Recent {
            slots: [None; LOOK_BACK],
            written: 0,
        }
    }

    /// `item`'s index in the table, and whether the table gets it now:
    /// an item equal to a recent one (by pointer, else by value) takes
    /// that one's index.
    fn index(&mut self, item: &'a Arc<T>) -> (u32, bool) {
        let mut recent = self.slots.iter().flatten();
        if let Some(&(_, i)) = recent.find(|(t, _)| Arc::ptr_eq(t, item) || *t == item) {
            return (i, false);
        }
        let i = self.written;
        let slot = usize::try_from(i).map_or(0, |i| i % LOOK_BACK);
        if let Some(slot) = self.slots.get_mut(slot) {
            *slot = Some((item, i));
        }
        self.written = i.saturating_add(1);
        (i, true)
    }
}

/// The layout of a list whose entries share items (`Vec<E> as Interned`
/// in a [`wire_frame!`], `E:` [`Interns`]): a `u32` count of distinct
/// items in first-use order, those items, then a `u32` count of entries,
/// each naming its item by a `u32` index into that table. The encoder
/// writes an item once when it equals one of the last eight distinct
/// items (by pointer, else by value); the decoder reads each
/// table item once and hands every entry that names it a shared handle,
/// so a list never decodes to more items than its frame holds. An index
/// past the table, one that skips ahead of first-use order, and a table
/// item no entry names do not decode.
#[derive(Debug)]
pub struct Interned;

impl Interned {
    /// The entries a list writes: as many as a `u32` counts.
    fn written<E>(entries: &[E]) -> &[E] {
        let cap = usize::try_from(u32::MAX).unwrap_or(usize::MAX);
        entries.get(..cap).unwrap_or(entries)
    }
}

impl<E: Interns> WireAs<Vec<E>> for Interned {
    const MIN_BYTES: usize = 2 * u32::MIN_BYTES;

    fn wire_len(entries: &Vec<E>) -> usize {
        let mut recent = Recent::new();
        let mut len = <Self as WireAs<Vec<E>>>::MIN_BYTES;
        for entry in Self::written(entries) {
            let item = entry.item();
            if recent.index(item).1 {
                len += Wire::wire_len(&**item);
            }
            len += entry.wire_len();
        }
        len
    }

    fn put(entries: &Vec<E>, buf: &mut BytesMut) {
        let entries = Self::written(entries);
        let at = buf.len();
        buf.put_u32_le(0);
        let mut recent = Recent::new();
        let indices: Vec<u32> = entries
            .iter()
            .map(|entry| {
                let item = entry.item();
                let (index, new) = recent.index(item);
                if new {
                    Wire::put(&**item, buf);
                }
                index
            })
            .collect();
        if let Some(count) = buf.get_mut(at..at + 4) {
            count.copy_from_slice(&recent.written.to_le_bytes());
        }
        u32::try_from(entries.len()).unwrap_or(u32::MAX).put(buf);
        for (entry, index) in entries.iter().zip(indices) {
            entry.put(index, buf);
        }
    }

    fn get(buf: &mut Bytes, what: &str) -> Result<Vec<E>, CodecError> {
        let n = u32::get(buf, what)?;
        let table = get_items(buf, what, n, E::Item::MIN_BYTES, |buf| {
            E::Item::get(buf, what).map(Arc::new)
        })?;
        let n = u32::get(buf, what)?;
        // Items are named in table order: the first entry to name one
        // names the next unnamed item.
        let mut named = 0;
        let entries = get_items(buf, what, n, E::MIN_BYTES, |buf| {
            E::get(buf, what, |index| {
                let i = usize::try_from(index).unwrap_or(usize::MAX);
                let Some(item) = table.get(i) else {
                    let len = table.len();
                    return Err(CodecError::new(format!(
                        "{what}: index {index} past a table of {len}"
                    )));
                };
                if i > named {
                    return Err(CodecError::new(format!(
                        "{what}: index {index} skips ahead of first use (next new is {named})"
                    )));
                }
                named = named.max(i + 1);
                Ok(Arc::clone(item))
            })
        })?;
        if named < table.len() {
            return Err(CodecError::new(format!(
                "{what}: table item {named} is named by no entry"
            )));
        }
        Ok(entries)
    }
}

/// `value`'s encoding, in one buffer of exactly its length.
pub fn encode<T: Wire>(value: &T) -> Bytes {
    let len = value.wire_len();
    let mut buf = BytesMut::with_capacity(len);
    value.put(&mut buf);
    debug_assert_eq!(buf.len(), len, "wire_len disagrees with put");
    buf.freeze()
}

/// The least of `xs` (`usize::MAX` for none): an enum's shortest variant.
#[doc(hidden)]
pub const fn min_of(xs: &[usize]) -> usize {
    match xs {
        [] => usize::MAX,
        [x, rest @ ..] => {
            let rest = min_of(rest);
            if *x < rest {
                *x
            } else {
                rest
            }
        }
    }
}

/// Declares a fieldless wire enum once: the enum under `#[repr(R)]`, its
/// `code(self) -> R`, its `from_code(R) -> Option<Self>` and its [`Wire`]
/// impl (the code as an `R`), all read off the one list of
/// `Variant = code` lines, so they cannot drift apart. Derives stay at
/// the call site, and `Copy` is one of them. A code the list does not
/// know does not decode: `get` returns a typed error.
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
///     #[derive(Clone, Copy)]
///     enum Tag: u8 { Request = 0, Offer = 0 }
/// }
/// ```
///
/// and a decoder that matches `from_code` with no `_` arm rejects a
/// variant it has no arm for (E0004):
///
/// ```compile_fail,E0004
/// netsim::codec::wire_enum! {
///     #[derive(Clone, Copy)]
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

        impl $crate::codec::Wire for $name {
            const MIN_BYTES: usize = <$repr as $crate::codec::Wire>::MIN_BYTES;

            fn wire_len(&self) -> usize {
                Self::MIN_BYTES
            }

            fn put(&self, buf: &mut $crate::codec::BytesMut) {
                $crate::codec::Wire::put(&self.code(), buf);
            }

            fn get(
                buf: &mut $crate::codec::Bytes,
                what: &str,
            ) -> Result<Self, $crate::codec::CodecError> {
                let c = <$repr as $crate::codec::Wire>::get(buf, what)?;
                Self::from_code(c)
                    .ok_or_else(|| $crate::codec::CodecError::new(format!("unknown {what} {c}")))
            }
        }
    };
}
pub use wire_enum;

/// Declares a frame once: a struct, or an enum whose variants carry a
/// `= code` tag, and each field's layout in the one list that declares
/// it. It emits the type (docs and derives kept), the enum's tag enum
/// through [`wire_enum!`] (named after the `:`, with the variants'
/// docs), and the [`Wire`] impl: `put` (encode) writes the tag and the
/// fields in order, `get` (decode) reads them back and names the field
/// that failed, `MIN_BYTES` is summed from the fields' types (for an
/// enum: the tag and its shortest variant) and `wire_len` from the
/// fields' values. A field is written as its
/// type's own [`Wire`], or `as` a layout ([`WireAs`]): a counted list
/// is `Vec<T> as Capped<N>` or `Capped<N, CAP>`.
///
/// ```
/// use netsim::codec::{wire_frame, Wire};
///
/// wire_frame! {
///     #[derive(Debug, PartialEq)]
///     pub enum Msg: Tag(u8) {
///         Ping = 0,
///         Echo(String) = 1,
///         Sum { terms: Vec<u64> as netsim::codec::Capped<u16, 8>, carry: bool } = 2,
///     }
/// }
///
/// let msg = Msg::Sum { terms: vec![1, 2], carry: true };
/// let frame = netsim::codec::encode(&msg);
/// assert_eq!(frame.len(), 1 + 2 + 2 * 8 + 1);
/// assert_eq!(msg.wire_len(), frame.len());
/// assert_eq!(Msg::get(&mut frame.clone(), "msg"), Ok(msg));
/// assert_eq!(<Msg as Wire>::MIN_BYTES, 1);
/// assert_eq!(Tag::Echo.code(), 1);
/// ```
///
/// Two variants with one tag do not build (E0081):
///
/// ```compile_fail,E0081
/// netsim::codec::wire_frame! {
///     enum Msg: Tag(u8) { Ping = 0, Echo(String) = 0 }
/// }
/// ```
#[macro_export]
macro_rules! wire_frame {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty $(as $fvia:ty)?),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $fty,)+
        }

        impl $crate::codec::Wire for $name {
            const MIN_BYTES: usize = 0 $(+ <$crate::__wire_via!($fty $(, $fvia)?)
                as $crate::codec::WireAs<$fty>>::MIN_BYTES)+;

            fn wire_len(&self) -> usize {
                0 $(+ <$crate::__wire_via!($fty $(, $fvia)?)
                    as $crate::codec::WireAs<$fty>>::wire_len(&self.$field))+
            }

            fn put(&self, buf: &mut $crate::codec::BytesMut) {
                $(<$crate::__wire_via!($fty $(, $fvia)?) as $crate::codec::WireAs<$fty>>::put(
                    &self.$field,
                    buf,
                );)+
            }

            fn get(
                buf: &mut $crate::codec::Bytes,
                _: &str,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok($name {$(
                    $field: <$crate::__wire_via!($fty $(, $fvia)?)
                        as $crate::codec::WireAs<$fty>>::get(
                        buf,
                        concat!(stringify!($name), ".", stringify!($field)),
                    )?,
                )+})
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident : $tvis:vis $tag:ident ($repr:ident) {
            $(
                $(#[$vmeta:meta])*
                $variant:ident
                $(($tty:ty $(as $tvia:ty)?))?
                $({$($(#[$fmeta:meta])* $field:ident : $fty:ty $(as $fvia:ty)?),+ $(,)?})?
                = $code:literal
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant $(($tty))? $({$($(#[$fmeta])* $field: $fty,)+})?,)+
        }

        $crate::wire_enum! {
            #[doc = concat!("The tag of a [`", stringify!($name), "`], one per variant.")]
            #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
            $tvis enum $tag: $repr {
                $($(#[$vmeta])* $variant = $code,)+
            }
        }

        impl $crate::codec::Wire for $name {
            const MIN_BYTES: usize = <$tag as $crate::codec::Wire>::MIN_BYTES
                + $crate::codec::min_of(&[$(
                    0 $(+ <$crate::__wire_via!($tty $(, $tvia)?)
                        as $crate::codec::WireAs<$tty>>::MIN_BYTES)?
                    $($(+ <$crate::__wire_via!($fty $(, $fvia)?)
                        as $crate::codec::WireAs<$fty>>::MIN_BYTES)+)?
                ),+]);

            fn wire_len(&self) -> usize {
                <$tag as $crate::codec::Wire>::MIN_BYTES + match self {$(
                    $name::$variant {
                        $(0: $crate::__wire_bind!(x $tty),)?
                        $($($field,)+)?
                    } => {
                        0 $(+ <$crate::__wire_via!($tty $(, $tvia)?)
                            as $crate::codec::WireAs<$tty>>::wire_len(x))?
                        $($(+ <$crate::__wire_via!($fty $(, $fvia)?)
                            as $crate::codec::WireAs<$fty>>::wire_len($field))+)?
                    }
                )+}
            }

            fn put(&self, buf: &mut $crate::codec::BytesMut) {
                match self {$(
                    $name::$variant {
                        $(0: $crate::__wire_bind!(x $tty),)?
                        $($($field,)+)?
                    } => {
                        $crate::codec::Wire::put(&$tag::$variant, buf);
                        $(<$crate::__wire_via!($tty $(, $tvia)?)
                            as $crate::codec::WireAs<$tty>>::put(x, buf);)?
                        $($(<$crate::__wire_via!($fty $(, $fvia)?)
                            as $crate::codec::WireAs<$fty>>::put($field, buf);)+)?
                    }
                )+}
            }

            fn get(
                buf: &mut $crate::codec::Bytes,
                _: &str,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(match <$tag as $crate::codec::Wire>::get(buf, stringify!($name))? {$(
                    $tag::$variant => $name::$variant {
                        $(0: <$crate::__wire_via!($tty $(, $tvia)?)
                            as $crate::codec::WireAs<$tty>>::get(
                            buf,
                            concat!(stringify!($name), "::", stringify!($variant)),
                        )?,)?
                        $($($field: <$crate::__wire_via!($fty $(, $fvia)?)
                            as $crate::codec::WireAs<$fty>>::get(
                            buf,
                            concat!(
                                stringify!($name), "::", stringify!($variant),
                                ".", stringify!($field),
                            ),
                        )?,)+)?
                    },
                )+})
            }
        }
    };
}
pub use wire_frame;

/// A field's layout: its `as` type when it has one, else [`AsIs`].
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_via {
    ($ty:ty) => {
        $crate::codec::AsIs
    };
    ($ty:ty, $via:ty) => {
        $via
    };
}

/// The binding a one-field variant's pattern names; the type only drives
/// the repetition.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_bind {
    ($x:ident $ty:ty) => {
        $x
    };
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
        None::<String>.put(&mut b);
        Some("x".to_string()).put(&mut b);
        (-3i8).put(&mut b);
        true.put(&mut b);
        put_display(&mut b, &format_args!("v{}.{}", 2, 10));

        let mut r = b.freeze();
        assert_eq!(u8::get(&mut r, "a").unwrap(), 7);
        assert_eq!(u16::get(&mut r, "b").unwrap(), 300);
        assert_eq!(u32::get(&mut r, "c").unwrap(), 70_000);
        assert_eq!(u64::get(&mut r, "d").unwrap(), 1 << 40);
        assert_eq!(i64::get(&mut r, "e").unwrap(), -42);
        assert_eq!(get_str(&mut r, "f").unwrap(), "héllo");
        assert_eq!(
            get_bytes(&mut r, "g").unwrap(),
            Bytes::from_static(&[1, 2, 3])
        );
        assert_eq!(Option::<String>::get(&mut r, "h").unwrap(), None);
        assert_eq!(Option::get(&mut r, "i"), Ok(Some("x".to_string())));
        assert_eq!(i8::get(&mut r, "j"), Ok(-3));
        assert_eq!(bool::get(&mut r, "k"), Ok(true));
        assert_eq!(get_str(&mut r, "l").unwrap(), "v2.10");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn every_value_knows_the_length_it_writes() {
        fn len_of<T: Wire>(value: T) -> (usize, usize) {
            let mut b = BytesMut::new();
            value.put(&mut b);
            (value.wire_len(), b.len())
        }
        for (said, written) in [
            len_of(7u8),
            len_of(-42i64),
            len_of("héllo".to_string()),
            len_of(Bytes::from_static(&[1, 2, 3])),
            len_of(None::<u64>),
            len_of(Some("x".to_string())),
            len_of((true, 300u16)),
            len_of(Ok::<u32, String>(1)),
            len_of(Err::<u32, String>("no".into())),
        ] {
            assert_eq!(said, written);
        }
        let version = format_args!("v{}.{}", 2, 10);
        let mut b = BytesMut::new();
        put_display(&mut b, &version);
        assert_eq!(display_len(&version), b.len());
        // A capped list counts only the items it writes.
        type Three = Capped<u16, 3>;
        let mut b = BytesMut::new();
        Three::put(&vec![1u64, 2, 3, 4], &mut b);
        assert_eq!(Three::wire_len(&vec![1u64, 2, 3, 4]), b.len());
    }

    #[test]
    fn underflow_is_reported_with_context() {
        let mut r = Bytes::from_static(&[1]);
        let e = u32::get(&mut r, "session id").unwrap_err();
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
        assert!(Option::<String>::get(&mut r, "opt").is_err());
        let mut r = Bytes::from_static(&[2, 0, 0, 0, 0, 0, 0, 0, 0]);
        let e = Option::<u64>::get(&mut r, "digest").unwrap_err();
        assert!(e.to_string().contains("bad presence byte 2"));
        let mut r = Bytes::from_static(&[1, 7, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(Option::<u64>::get(&mut r, "d"), Ok(Some(7)));
        assert_eq!(Option::<u64>::get(&mut r, "d"), Ok(None));
    }

    #[test]
    fn capped_lists_count_what_they_write_and_leave_the_rest() {
        type Three = Capped<u16, 3>;
        let mut b = BytesMut::new();
        <Three as WireAs<Vec<u64>>>::put(&vec![1, 2, 3, 4], &mut b);
        b.put_u8(9);
        assert_eq!(b.len(), 2 + 3 * 8 + 1);
        let mut r = b.freeze();
        assert_eq!(Three::get(&mut r, "digests"), Ok(vec![1u64, 2, 3]));
        assert_eq!(u8::get(&mut r, "tail"), Ok(9));

        // A count past the cap is refused with every item in the frame.
        let mut b = BytesMut::new();
        <Capped<u16> as WireAs<Vec<u8>>>::put(&vec![7; 4], &mut b);
        let e = <Three as WireAs<Vec<u8>>>::get(&mut b.freeze(), "digests");
        assert!(e
            .unwrap_err()
            .to_string()
            .contains("count 4 exceeds the cap 3"));

        // Past the count's width: as many items as `u16::MAX`, and it says so.
        let mut b = BytesMut::new();
        <Capped<u16> as WireAs<Vec<u8>>>::put(&vec![7; 70_000], &mut b);
        assert_eq!(b.len(), 2 + usize::from(u16::MAX));
        let list: Vec<u8> = Capped::<u16>::get(&mut b.freeze(), "bytes").unwrap();
        assert_eq!(list.len(), usize::from(u16::MAX));
    }

    /// An interned list of `u64` items: the table, then the entries'
    /// indices.
    fn interned(table: &[u64], indices: &[u32]) -> Bytes {
        let mut b = BytesMut::new();
        <Capped<u32> as WireAs<Vec<u64>>>::put(&table.to_vec(), &mut b);
        <Capped<u32> as WireAs<Vec<u32>>>::put(&indices.to_vec(), &mut b);
        b.freeze()
    }

    fn get_interned(frame: Bytes) -> Result<Vec<Arc<u64>>, CodecError> {
        Interned::get(&mut frame.clone(), "replies")
    }

    #[test]
    fn an_interned_list_writes_each_distinct_item_once_and_shares_it() {
        let seven = Arc::new(7u64);
        // Equal by pointer, then by value only.
        let list = vec![seven.clone(), Arc::new(8), seven, Arc::new(7), Arc::new(8)];
        let mut b = BytesMut::new();
        Interned::put(&list, &mut b);
        assert_eq!(b.clone().freeze(), interned(&[7, 8], &[0, 1, 0, 0, 1]));
        assert_eq!(Interned::wire_len(&list), b.len());
        let got = get_interned(b.freeze()).unwrap();
        assert_eq!(got, list);
        assert!(Arc::ptr_eq(&got[0], &got[3]) && Arc::ptr_eq(&got[1], &got[4]));

        // An entry with a value of its own writes it before its index.
        let hosts = vec![("a".to_string(), Arc::new(7u64)), ("b".into(), Arc::new(7))];
        let mut b = BytesMut::new();
        Interned::put(&hosts, &mut b);
        assert_eq!(b.len(), 4 + 8 + 4 + 2 * (4 + 1 + 4));
        assert_eq!(Interned::wire_len(&hosts), b.len());
        let got: Vec<(String, Arc<u64>)> = Interned::get(&mut b.freeze(), "batch").unwrap();
        assert_eq!(got, hosts);

        // An item last seen more than `LOOK_BACK` distinct items ago is
        // written again: the frame is longer, the list the same.
        let far: Vec<Arc<u64>> = (0..=LOOK_BACK as u64).chain([0]).map(Arc::new).collect();
        let mut b = BytesMut::new();
        Interned::put(&far, &mut b);
        assert_eq!(b.len(), 4 + (LOOK_BACK + 2) * 8 + 4 + far.len() * 4);
        assert_eq!(Interned::wire_len(&far), b.len());
        assert_eq!(get_interned(b.freeze()).unwrap(), far);
    }

    #[test]
    fn an_index_past_the_table_is_rejected() {
        let e = get_interned(interned(&[7], &[0, 1])).unwrap_err();
        assert!(e.to_string().contains("index 1 past a table of 1"), "{e}");
    }

    #[test]
    fn an_index_that_skips_ahead_of_first_use_is_rejected() {
        // Both items are named, but the second before the first: the
        // same list is also `[7, 8]` named `[0, 1]`, its one encoding.
        let e = get_interned(interned(&[8, 7], &[1, 0])).unwrap_err();
        assert!(e.to_string().contains("index 1 skips ahead"), "{e}");
        assert!(get_interned(interned(&[7, 8], &[0, 1])).is_ok());
    }

    #[test]
    fn a_table_item_no_entry_names_is_rejected() {
        let e = get_interned(interned(&[7, 8], &[0, 0])).unwrap_err();
        assert!(
            e.to_string().contains("table item 1 is named by no entry"),
            "{e}"
        );
        let e = get_interned(interned(&[7], &[])).unwrap_err();
        assert!(e.to_string().contains("table item 0"), "{e}");
        assert_eq!(get_interned(interned(&[], &[])), Ok(Vec::new()));
    }

    #[test]
    fn a_count_the_frame_cannot_hold_is_rejected_before_allocating() {
        // 17 bytes hold two 8-byte items, not three; nothing is consumed
        // or decoded on the way to the error.
        let frame = Bytes::from(vec![0u8; 17]);
        let calls = std::cell::Cell::new(0);
        let mut item = |b: &mut Bytes| {
            calls.set(calls.get() + 1);
            u64::get(b, "item")
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
        let item = |b: &mut Bytes| match u8::get(b, "item")? {
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
        let wide = |b: &mut Bytes| Ok::<_, E>(u16::get(b, "wide")?);
        assert!(matches!(
            get_items(&mut r, "list", 2, 1, wide),
            Err(E::Codec(_))
        ));
    }
}
