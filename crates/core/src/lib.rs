//! # drivolution-core — the Drivolution mechanism
//!
//! Core types and protocol for the reproduction of *"Drivolution:
//! Rethinking the Database Driver Lifecycle"* (Cecchet & Candea,
//! Middleware 2009): database drivers stored in the DBMS, distributed to
//! clients on demand by a Drivolution server, loaded by a tiny bootloader,
//! and governed by DHCP-like leases.
//!
//! This crate is deliberately substrate-free: it depends on neither the
//! database engine (`minidb`) nor the driver runtime (`driverkit`). It
//! provides:
//!
//! * [`DriverRecord`] / [`PermissionRule`] — the in-memory forms of the
//!   paper's Table 1 and Table 2 schemas;
//! * [`DriverImage`] — the "driver binary code" (see the substitution
//!   note in [`image`]);
//! * [`pack`] — the `djar`/`dzip` container formats behind the
//!   `binary_format` column;
//! * [`Lease`], [`RenewPolicy`], [`ExpirationPolicy`] — the lease state
//!   machine and Table 2 policies;
//! * [`chunk`] — content-addressed chunking behind the depot's
//!   revalidation and delta distribution;
//! * [`matching`] — the matchmaking engine mirroring Sample code 1–2;
//! * [`proto`] — the `DRIVOLUTION_REQUEST` / `OFFER` / `ERROR` /
//!   `DISCOVER` wire protocol of §3.4;
//! * [`transfer`] — plain / checksum / sealed ("SSL") file transfer;
//! * [`sign`] — driver code signing and bootloader trust stores.
//!
//! # Examples
//!
//! ```
//! use drivolution_core::{
//!     DriverImage, DriverVersion, Lease, LeaseState, RenewPolicy, ExpirationPolicy, DriverId,
//! };
//!
//! // A driver image is the unit stored in the database's BLOB column.
//! let image = DriverImage::new("minidb-rdbc", DriverVersion::new(1, 0, 0), 1);
//! let packed = drivolution_core::pack::pack_driver(Default::default(), &image);
//! assert!(!packed.is_empty());
//!
//! // Leases govern validity.
//! let lease = Lease::grant(
//!     DriverId(1), 0, 3_600_000, RenewPolicy::Renew, ExpirationPolicy::AfterCommit,
//! )?;
//! assert_eq!(lease.state(0), LeaseState::Valid);
//! assert_eq!(lease.state(3_600_000), LeaseState::Expired);
//! # Ok::<(), drivolution_core::DrvError>(())
//! ```

#![warn(missing_docs)]

pub mod chunk;
mod descriptor;
mod digest;
mod error;
pub mod image;
mod lease;
pub mod matching;
pub mod pack;
mod permission;
mod policy;
pub mod proto;
pub mod sign;
pub mod transfer;
mod version;

pub use chunk::{
    delta_cost, ChunkManifest, ChunkSet, ChunkingParams, DeltaCost, DEFAULT_CDC_AVG,
    DEFAULT_CDC_MAX, DEFAULT_CDC_MIN, DEFAULT_CDC_NORM, DEFAULT_CHUNK_SIZE, MAX_CDC_NORM,
    MAX_IMAGE_BYTES,
};
pub use descriptor::{ApiName, BinaryFormat, DriverId, DriverRecord};
pub use digest::{entropy_blob, fnv1a64, fnv1a64_lanes, fnv1a64_parts, Digested};
pub use error::{DrvError, DrvResult};
pub use image::{AuthKind, DriverFlavor, DriverImage, Extension};
pub use lease::{Lease, LeaseState};
pub use matching::{DriverQuery, Match};
pub use permission::{like, ClientIdentity, PermissionRule};
pub use policy::{ExpirationPolicy, RenewPolicy, TransferMethod};
pub use proto::{
    ChunkPlan, DrvMsg, DrvNotice, DrvOffer, DrvRequest, HaveSummary, MirrorCandidate, RequestKind,
    DRIVOLUTION_PORT,
};
pub use sign::{Signature, SigningKey, TrustStore, VerifyingKey};
pub use transfer::{Certificate, ChannelTrust};
pub use version::{ApiVersion, DriverVersion};
