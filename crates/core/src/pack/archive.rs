//! Format-independent archive model.

use bytes::Bytes;

use crate::descriptor::BinaryFormat;
use crate::error::{DrvError, DrvResult};

use super::{djar, dzip};

/// An in-memory driver container: named entries with integrity digests.
#[derive(Clone, Debug, PartialEq)]
pub struct Archive {
    format: BinaryFormat,
    entries: Vec<(String, Bytes)>,
}

impl Archive {
    /// Creates an empty archive of the given format.
    pub fn new(format: BinaryFormat) -> Self {
        Archive {
            format,
            entries: Vec::new(),
        }
    }

    /// The container format.
    pub fn format(&self) -> BinaryFormat {
        self.format
    }

    /// Adds (or replaces) an entry.
    pub fn add_entry(&mut self, name: impl Into<String>, data: Bytes) {
        let name = name.into();
        if let Some(e) = self.entries.iter_mut().find(|(n, _)| *n == name) {
            e.1 = data;
        } else {
            self.entries.push((name, data));
        }
    }

    /// Removes an entry, returning whether it existed.
    pub fn remove_entry(&mut self, name: &str) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(n, _)| n != name);
        self.entries.len() != before
    }

    /// Looks up an entry by name.
    pub fn entry(&self, name: &str) -> Option<&Bytes> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, d)| d)
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> &[(String, Bytes)] {
        &self.entries
    }

    /// Serializes to the archive's format.
    pub fn encode(&self) -> Bytes {
        match self.format {
            BinaryFormat::Djar => djar::encode(&self.entries),
            BinaryFormat::Dzip => dzip::encode(&self.entries),
        }
    }

    /// Parses bytes in the given format, verifying every entry digest.
    ///
    /// # Errors
    ///
    /// [`DrvError::BadPackage`] on magic/layout/digest failures.
    pub fn decode(format: BinaryFormat, bytes: Bytes) -> DrvResult<Self> {
        let entries = match format {
            BinaryFormat::Djar => djar::decode(bytes)?,
            BinaryFormat::Dzip => dzip::decode(bytes)?,
        };
        Ok(Archive { format, entries })
    }
}

pub(super) fn corrupt(reason: impl Into<String>) -> DrvError {
    DrvError::BadPackage(reason.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_replace_remove() {
        let mut a = Archive::new(BinaryFormat::Djar);
        a.add_entry("a", Bytes::from_static(b"1"));
        a.add_entry("b", Bytes::from_static(b"2"));
        a.add_entry("a", Bytes::from_static(b"3"));
        assert_eq!(a.entry("a").unwrap(), &Bytes::from_static(b"3"));
        let names: Vec<&str> = a.entries().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(a.remove_entry("a"));
        assert!(!a.remove_entry("a"));
        assert_eq!(a.entries(), [("b".to_string(), Bytes::from_static(b"2"))]);
    }

    #[test]
    fn roundtrip_each_format() {
        for f in [BinaryFormat::Djar, BinaryFormat::Dzip] {
            let mut a = Archive::new(f);
            a.add_entry("driver.img", Bytes::from_static(b"image-bytes"));
            a.add_entry("ext/gis", Bytes::from_static(b""));
            a.add_entry("code.bin", Bytes::from(vec![7u8; 1000]));
            let round = Archive::decode(f, a.encode()).unwrap();
            assert_eq!(round, a);
        }
    }

    #[test]
    fn empty_archive_roundtrips() {
        for f in [BinaryFormat::Djar, BinaryFormat::Dzip] {
            let a = Archive::new(f);
            assert_eq!(Archive::decode(f, a.encode()).unwrap(), a);
        }
    }

    #[test]
    fn corruption_is_detected_everywhere() {
        for f in [BinaryFormat::Djar, BinaryFormat::Dzip] {
            let mut a = Archive::new(f);
            a.add_entry("driver.img", Bytes::from(vec![0xabu8; 200]));
            let enc = a.encode().to_vec();
            // Flip one byte at several positions: header, data, trailer.
            for pos in [0usize, 10, enc.len() / 2, enc.len() - 1] {
                let mut bad = enc.clone();
                bad[pos] ^= 0xff;
                assert!(
                    Archive::decode(f, Bytes::from(bad)).is_err(),
                    "corruption at {pos} undetected for {f:?}"
                );
            }
        }
    }
}
