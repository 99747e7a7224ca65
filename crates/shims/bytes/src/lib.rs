//! Minimal, API-compatible shim for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships the subset of `bytes` it actually uses: [`Bytes`] (a cheaply
//! cloneable, sliceable byte buffer), [`BytesMut`] (a growable builder),
//! and the [`Buf`]/[`BufMut`] cursor traits with little-endian accessors.
//! Every item behaves as the real crate's item of the same name does, so
//! swapping the real crate back in changes no caller.

use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable slice of bytes.
///
/// Clones share the underlying allocation; [`Bytes::slice`] and
/// [`Bytes::split_to`] are O(1). The buffer is held as `Arc<Vec<u8>>`
/// rather than `Arc<[u8]>` so `From<Vec<u8>>` (and therefore
/// [`BytesMut::freeze`]) adopts the vector's allocation instead of
/// copying it — every frame encode and image assembly in the workspace
/// goes through that conversion, and at fleet scale the extra copy onto
/// freshly faulted pages dominated upgrade wall time.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wraps a static byte slice without copying semantics that matter
    /// here (the shim copies once into a shared allocation).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// Copies `data` into a new `Bytes`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Returns a slice of self for the provided range (O(1), shared
    /// allocation).
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            begin <= end && end <= len,
            "slice {begin}..{end} out of bounds (len {len})"
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// Splits off and returns the first `at` bytes; `self` advances past
    /// them.
    ///
    /// # Panics
    ///
    /// Panics when `at > self.len()`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(
            at <= self.len(),
            "split_to {at} out of bounds (len {})",
            self.len()
        );
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    /// Converts into a [`BytesMut`] over the same bytes when this is the
    /// only handle to the allocation; hands `self` back otherwise. No
    /// bytes move either way.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        let Bytes { data, start, end } = self;
        match Arc::try_unwrap(data) {
            Ok(mut data) => {
                data.truncate(end);
                Ok(BytesMut { data, start })
            }
            Err(data) => Err(Bytes { data, start, end }),
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from(s.as_bytes().to_vec())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == &other[..]
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(32) {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len() > 32 {
            write!(f, "… ({} bytes)", self.len())?;
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer for building frames.
///
/// `start` is non-zero only for a buffer that came from
/// [`Bytes::try_into_mut`] on a slice: the view keeps its offset into
/// the adopted allocation.
#[derive(Clone, Debug, Default)]
pub struct BytesMut {
    data: Vec<u8>,
    start: usize,
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for BytesMut {}

impl BytesMut {
    /// Creates an empty builder.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates an empty builder with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
            start: 0,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len() - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.data.extend_from_slice(extend);
    }

    /// Freezes the builder into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        let mut b = Bytes::from(self.data);
        b.start = self.start;
        b
    }
}

impl From<&[u8]> for BytesMut {
    fn from(src: &[u8]) -> Self {
        BytesMut {
            data: src.to_vec(),
            start: 0,
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data[self.start..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// Read cursor over a byte buffer with little-endian accessors.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];
    /// Consumes `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Reads one signed byte.
    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut buf = [0u8; 2];
        buf.copy_from_slice(&self.chunk()[..2]);
        self.advance(2);
        u16::from_le_bytes(buf)
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut buf = [0u8; 4];
        buf.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_le_bytes(buf)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_le_bytes(buf)
    }

    /// Reads a little-endian `i64`.
    fn get_i64_le(&mut self) -> i64 {
        self.get_u64_le() as i64
    }

    /// Reads a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(
            cnt <= self.len(),
            "advance {cnt} out of bounds (len {})",
            self.len()
        );
        self.start += cnt;
    }
}

/// Write cursor with little-endian writers.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    /// Appends one signed byte.
    fn put_i8(&mut self, n: i8) {
        self.put_u8(n as u8);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, n: u16) {
        self.put_slice(&n.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, n: u32) {
        self.put_slice(&n.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, n: u64) {
        self.put_slice(&n.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    fn put_i64_le(&mut self, n: i64) {
        self.put_slice(&n.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, n: f64) {
        self.put_u64_le(n.to_bits());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_slice_and_split_share_data() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        assert_eq!(b.slice(1..4), Bytes::from(vec![2, 3, 4]));
        let mut rest = b.clone();
        let head = rest.split_to(2);
        assert_eq!(head, Bytes::from(vec![1, 2]));
        assert_eq!(rest, Bytes::from(vec![3, 4, 5]));
    }

    #[test]
    fn try_into_mut_needs_the_only_handle_and_keeps_the_view() {
        let whole = Bytes::from(vec![1, 2, 3, 4, 5]);
        let mid = whole.slice(1..4);
        let mid = mid.try_into_mut().expect_err("`whole` still shares it");
        drop(whole);
        let mut m = mid.try_into_mut().expect("now unique");
        assert_eq!(&m[..], &[2, 3, 4]);
        m[0] = 9;
        m.put_u8(7);
        assert_eq!(m.len(), 4);
        assert_eq!(m.freeze(), Bytes::from(vec![9, 3, 4, 7]));
    }

    #[test]
    fn buf_roundtrip() {
        let mut m = BytesMut::new();
        m.put_u8(7);
        m.put_u16_le(300);
        m.put_u32_le(70_000);
        m.put_u64_le(1 << 40);
        m.put_i64_le(-42);
        m.put_slice(b"xy");
        let mut b = m.freeze();
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u16_le(), 300);
        assert_eq!(b.get_u32_le(), 70_000);
        assert_eq!(b.get_u64_le(), 1 << 40);
        assert_eq!(b.get_i64_le(), -42);
        assert_eq!(b, Bytes::from_static(b"xy"));
    }
}
