//! DJAR: manifest-first container layout (the "JAR" of this
//! reproduction).
//!
//! ```text
//! +--------+---------+----------------------------------+-----------+
//! | "DJAR" | ver: u8 | count: u16 | entries…            | seal: u64 |
//! +--------+---------+----------------------------------+-----------+
//! entry := name(str) | data(bytes) | digest: u64
//! seal  := fnv1a64(everything before the seal)
//! ```

use bytes::{BufMut, Bytes, BytesMut};

use netsim::codec::{get_bytes, get_items, get_str, get_u16, get_u64, get_u8, put_bytes, put_str};

use crate::digest::{fnv1a64, fnv1a64_parts};
use crate::error::DrvResult;

use super::archive::corrupt;

const MAGIC: &[u8; 4] = b"DJAR";
const VERSION: u8 = 1;

fn entry_digest(name: &str, data: &[u8]) -> u64 {
    fnv1a64_parts(&[name.as_bytes(), data])
}

/// Encodes entries into the DJAR layout.
pub(super) fn encode(entries: &[(String, Bytes)]) -> Bytes {
    let mut b = BytesMut::new();
    b.put_slice(MAGIC);
    b.put_u8(VERSION);
    b.put_u16_le(entries.len() as u16);
    for (name, data) in entries {
        put_str(&mut b, name);
        put_bytes(&mut b, data);
        b.put_u64_le(entry_digest(name, data));
    }
    let seal = fnv1a64(&b);
    b.put_u64_le(seal);
    b.freeze()
}

/// Decodes and fully verifies a DJAR container.
pub(super) fn decode(bytes: Bytes) -> DrvResult<Vec<(String, Bytes)>> {
    if bytes.len() < MAGIC.len() + 1 + 2 + 8 {
        return Err(corrupt("djar: too short"));
    }
    let seal_at = bytes.len() - 8;
    let body = bytes.slice(0..seal_at);
    let mut seal_bytes = bytes.slice(seal_at..);
    let seal = get_u64(&mut seal_bytes, "djar seal")?;
    if fnv1a64(&body) != seal {
        return Err(corrupt("djar: seal mismatch"));
    }
    let mut buf = body;
    let mut magic = buf.split_to(MAGIC.len());
    if magic.split_to(MAGIC.len()).as_ref() != MAGIC {
        return Err(corrupt("djar: bad magic"));
    }
    let ver = get_u8(&mut buf, "djar version")?;
    if ver != VERSION {
        return Err(corrupt(format!("djar: unsupported version {ver}")));
    }
    let count = get_u16(&mut buf, "djar entry count")?;
    // An entry is at least two length prefixes and a digest.
    let entries = get_items(&mut buf, "djar entries", count.into(), 16, |buf| {
        let name = get_str(buf, "djar entry name")?;
        let data = get_bytes(buf, "djar entry data")?;
        let digest = get_u64(buf, "djar entry digest")?;
        if entry_digest(&name, &data) != digest {
            return Err(corrupt(format!("djar: digest mismatch for entry {name:?}")));
        }
        Ok((name, data))
    })?;
    if !buf.is_empty() {
        return Err(corrupt("djar: trailing bytes after last entry"));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_starts_with_magic() {
        let e = encode(&[("a".into(), Bytes::from_static(b"x"))]);
        assert_eq!(&e[0..4], MAGIC);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let good = encode(&[]).to_vec();
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(decode(Bytes::from(bad)).is_err());
        // Version byte flip also breaks the seal, but check the message for
        // a direct version mismatch with a recomputed seal.
        let mut v2 = good.clone();
        v2[4] = 9;
        let seal_at = v2.len() - 8;
        let seal = fnv1a64(&v2[..seal_at]);
        v2[seal_at..].copy_from_slice(&seal.to_le_bytes());
        let err = decode(Bytes::from(v2)).unwrap_err();
        assert!(err.to_string().contains("unsupported version"));
    }

    #[test]
    fn rejects_short_input() {
        assert!(decode(Bytes::from_static(b"DJ")).is_err());
    }

    #[test]
    fn rejects_trailing_garbage_with_fixed_seal() {
        let mut e = encode(&[("a".into(), Bytes::from_static(b"x"))]).to_vec();
        let seal_at = e.len() - 8;
        e.truncate(seal_at);
        e.extend_from_slice(&[0, 0, 0]); // junk
        let seal = fnv1a64(&e);
        e.extend_from_slice(&seal.to_le_bytes());
        assert!(decode(Bytes::from(e)).is_err());
    }
}
