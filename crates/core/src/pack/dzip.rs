//! DZIP: directory-last container layout (the "ZIP" of this
//! reproduction).
//!
//! ```text
//! +--------+---------+------------+-----------+--------------+-----------+--------+
//! | "DZIP" | ver: u8 | data blobs | directory | diroff: u32  | seal: u64 | "PIZD" |
//! +--------+---------+------------+-----------+--------------+-----------+--------+
//! directory := count: u16 | { name(str) | offset: u32 | len: u32 | digest: u64 }…
//! seal      := fnv1a64(everything before the seal)
//! ```

use bytes::{BufMut, Bytes, BytesMut};

use netsim::codec::{get_items, get_str, Wire};

use crate::digest::fnv1a64;
use crate::error::DrvResult;

use super::archive::corrupt;

const MAGIC: &[u8; 4] = b"DZIP";
const END_MAGIC: &[u8; 4] = b"PIZD";
const VERSION: u8 = 1;

/// Encodes entries into the DZIP layout.
pub(super) fn encode(entries: &[(String, Bytes)]) -> Bytes {
    let mut b = BytesMut::new();
    b.put_slice(MAGIC);
    b.put_u8(VERSION);
    let mut offsets = Vec::with_capacity(entries.len());
    for (_, data) in entries {
        offsets.push(b.len() as u32);
        b.put_slice(data);
    }
    let dir_offset = b.len() as u32;
    b.put_u16_le(entries.len() as u16);
    for ((name, data), off) in entries.iter().zip(&offsets) {
        netsim::codec::put_str(&mut b, name);
        b.put_u32_le(*off);
        b.put_u32_le(data.len() as u32);
        b.put_u64_le(fnv1a64(data));
    }
    b.put_u32_le(dir_offset);
    let seal = fnv1a64(&b);
    b.put_u64_le(seal);
    b.put_slice(END_MAGIC);
    b.freeze()
}

/// Decodes and fully verifies a DZIP container.
pub(super) fn decode(bytes: Bytes) -> DrvResult<Vec<(String, Bytes)>> {
    let min = MAGIC.len() + 1 + 2 + 4 + 8 + END_MAGIC.len();
    if bytes.len() < min {
        return Err(corrupt("dzip: too short"));
    }
    if &bytes[bytes.len() - END_MAGIC.len()..] != END_MAGIC {
        return Err(corrupt("dzip: bad end magic"));
    }
    let seal_at = bytes.len() - END_MAGIC.len() - 8;
    let mut seal_bytes = bytes.slice(seal_at..seal_at + 8);
    let seal = u64::get(&mut seal_bytes, "dzip seal")?;
    if fnv1a64(&bytes[..seal_at]) != seal {
        return Err(corrupt("dzip: seal mismatch"));
    }
    if &bytes[0..MAGIC.len()] != MAGIC {
        return Err(corrupt("dzip: bad magic"));
    }
    let mut header = bytes.slice(MAGIC.len()..MAGIC.len() + 1);
    let ver = u8::get(&mut header, "dzip version")?;
    if ver != VERSION {
        return Err(corrupt(format!("dzip: unsupported version {ver}")));
    }
    let diroff_at = seal_at - 4;
    let mut diroff_bytes = bytes.slice(diroff_at..diroff_at + 4);
    let dir_offset = u32::get(&mut diroff_bytes, "dzip dir offset")? as usize;
    if dir_offset < MAGIC.len() + 1 || dir_offset > diroff_at {
        return Err(corrupt("dzip: directory offset out of range"));
    }
    let mut dir = bytes.slice(dir_offset..diroff_at);
    let count = u16::get(&mut dir, "dzip entry count")?;
    // A directory entry is at least a name prefix, offset, length, digest.
    let entries = get_items(&mut dir, "dzip directory", count.into(), 20, |dir| {
        let name = get_str(dir, "dzip entry name")?;
        let off = u32::get(dir, "dzip entry offset")? as usize;
        let len = u32::get(dir, "dzip entry len")? as usize;
        let digest = u64::get(dir, "dzip entry digest")?;
        let end = off
            .checked_add(len)
            .ok_or_else(|| corrupt("dzip: entry range overflow"))?;
        if off < MAGIC.len() + 1 || end > dir_offset {
            return Err(corrupt(format!("dzip: entry {name:?} outside data area")));
        }
        let data = bytes.slice(off..end);
        if fnv1a64(&data) != digest {
            return Err(corrupt(format!("dzip: digest mismatch for entry {name:?}")));
        }
        Ok((name, data))
    })?;
    if !dir.is_empty() {
        return Err(corrupt("dzip: trailing bytes in directory"));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_has_both_magics() {
        let e = encode(&[("a".into(), Bytes::from_static(b"xyz"))]);
        assert_eq!(&e[0..4], MAGIC);
        assert_eq!(&e[e.len() - 4..], END_MAGIC);
    }

    #[test]
    fn data_precedes_directory() {
        // The blob bytes must appear before the directory — that's the
        // point of the format difference.
        let data = Bytes::from_static(b"UNIQUEBLOB");
        let e = encode(&[("a".into(), data.clone())]);
        let pos = e
            .windows(data.len())
            .position(|w| w == data.as_ref())
            .unwrap();
        assert!(pos < e.len() / 2);
    }

    #[test]
    fn rejects_truncation_and_bad_end() {
        let e = encode(&[("a".into(), Bytes::from_static(b"x"))]);
        assert!(decode(e.slice(0..e.len() - 1)).is_err());
        assert!(decode(Bytes::from_static(b"DZIP")).is_err());
    }

    #[test]
    fn rejects_out_of_range_directory() {
        // Craft a frame whose dir offset points past the end, reseal it.
        let mut e = encode(&[]).to_vec();
        let diroff_at = e.len() - 4 - 8 - 4;
        e[diroff_at..diroff_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let seal_at = e.len() - 12;
        let seal = fnv1a64(&e[..seal_at]);
        e[seal_at..seal_at + 8].copy_from_slice(&seal.to_le_bytes());
        assert!(decode(Bytes::from(e)).is_err());
    }
}
