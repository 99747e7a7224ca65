//! # drivolution-depot — content-addressed driver distribution
//!
//! The paper's Drivolution server re-ships the full driver image to every
//! client on every lease grant; its §5 experiments show server traffic as
//! the limiting factor against short lease times. This crate makes
//! redistribution cost stop scaling with `clients × image_size`:
//!
//! * [`ContentIndex`] — a content-addressed store of driver images split
//!   into fixed-size chunks keyed by [`drivolution_core::fnv1a64`]
//!   digest. The server keeps one over its installed drivers; mirrors and
//!   clients keep their own.
//! * [`DriverDepot`] — the client-side (optionally persistent) cache the
//!   bootloader consults before issuing a `DRIVOLUTION_REQUEST`. A cache
//!   hit turns the download into a zero-transfer revalidation against the
//!   offered digest; a near-miss turns an upgrade into a chunked delta
//!   that only moves changed chunks.
//! * [`MirrorDepot`] — a read-only depot replica registered on the
//!   simulated network. The server redirects bulk `CHUNK_REQUEST` traffic
//!   to mirrors, keeping the matchmaking/lease path on the primary.
//!   Mirrors fill themselves read-through from the primary.
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use drivolution_depot::DriverDepot;
//!
//! let depot = DriverDepot::in_memory();
//! let v1 = Bytes::from(vec![7u8; 64 * 1024]);
//! let digest = depot.insert("orders", v1.clone());
//!
//! // Revalidation: the digest round-trips to the same bytes.
//! assert_eq!(depot.lookup(digest), Some(v1));
//!
//! // HAVE summary for the next DRIVOLUTION_REQUEST.
//! let have = depot.have_summary("orders").unwrap();
//! assert!(have.images.contains(&digest));
//! assert_eq!(have.base, Some(digest));
//! ```

#![warn(missing_docs)]

mod depot;
mod exchange;
mod index;
mod mirror;
mod shared;

pub use depot::DriverDepot;
pub use exchange::{fetch_chunks, serve_chunks};
pub use index::{ContentIndex, DeltaPlan};
pub use mirror::{MirrorDepot, MirrorStats, HEARTBEAT_EVERY};
pub use shared::SharedImageCache;

/// Parses a `host:port` mirror location (as carried in
/// [`drivolution_core::ChunkPlan::mirrors`]) into a network address.
///
/// # Errors
///
/// [`drivolution_core::DrvError::Codec`] when the string is not
/// `host:port`.
pub fn parse_mirror_addr(s: &str) -> drivolution_core::DrvResult<netsim::Addr> {
    let (host, port) = s
        .rsplit_once(':')
        .ok_or_else(|| drivolution_core::DrvError::Codec(format!("bad mirror address {s:?}")))?;
    let port: u16 = port
        .parse()
        .map_err(|_| drivolution_core::DrvError::Codec(format!("bad mirror port in {s:?}")))?;
    if host.is_empty() {
        return Err(drivolution_core::DrvError::Codec(format!(
            "empty mirror host in {s:?}"
        )));
    }
    Ok(netsim::Addr::new(host, port))
}

#[cfg(test)]
mod addr_tests {
    use super::parse_mirror_addr;

    #[test]
    fn parses_host_port() {
        let a = parse_mirror_addr("mirror1:1071").unwrap();
        assert_eq!(a.host(), "mirror1");
        assert_eq!(a.port(), 1071);
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_mirror_addr("mirror1").is_err());
        assert!(parse_mirror_addr(":1071").is_err());
        assert!(parse_mirror_addr("m:notaport").is_err());
    }
}
