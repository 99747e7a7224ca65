//! One valid frame per wire shape, and the window mutator over them:
//! shared by `fuzz_resilience` (typed error or a value that re-encodes,
//! never a panic) and `alloc_budget` (allocation follows bytes held).
#![allow(dead_code)] // each of the two binaries uses one of `Subject`'s closures

use std::fmt::Debug;
use std::sync::Arc;

use bytes::Bytes;

use drivolution::core::chunk::{split_with, ChunkManifest, ChunkSet, ChunkingParams};
use drivolution::core::pack::Archive;
use drivolution::core::proto::{
    Activation, ChunkPlan, DrvErrCode, DrvMsg, DrvNotice, DrvOffer, DrvRequest, HaveSummary,
    LeaseTerms, MirrorCandidate, RequestKind,
};
use drivolution::core::{
    fnv1a64, BinaryFormat, DriverId, DriverImage, DriverVersion, ExpirationPolicy, Extension,
    RenewPolicy, TransferMethod,
};
use drivolution::minidb::exec::RowSet;
use drivolution::minidb::wire::{ClientAuth, ClientMsg, ServerMsg};
use drivolution::minidb::Value;

/// One valid frame per `core::proto` frame tag, all 23, in tag order.
pub(crate) fn drv_msgs() -> Vec<DrvMsg> {
    let manifest = ChunkManifest::of_with(&[7u8; 40_000], &ChunkingParams::default());

    vec![
        DrvMsg::Request(DrvRequest::bootstrap(
            "orders",
            "alice",
            "RDBC",
            "linux-x86_64",
        )),
        DrvMsg::Discover(DrvRequest {
            kind: RequestKind::Renewal {
                current: DriverId(7),
            },
            have: Some(HaveSummary {
                images: vec![manifest.content_digest],
                params: manifest.params,
                base: Some(manifest.content_digest),
            }),
            zone: Some("east".into()),
            ..DrvRequest::bootstrap("orders", "alice", "RDBC", "linux-x86_64")
        }),
        DrvMsg::Offer(DrvOffer {
            driver_id: DriverId(1),
            driver_version: Some(DriverVersion::new(2, 0, 1)),
            same_driver: false,
            lease_ms: 60_000,
            renew_policy: RenewPolicy::Renew,
            expiration_policy: ExpirationPolicy::AfterCommit,
            format: BinaryFormat::Djar,
            location: "drivers/1".into(),
            size: 4096,
            transfer_method: TransferMethod::Sealed,
            options: vec![("fetch_size".into(), "100".into())],
            signature: None,
            content_digest: Some(0xdead_beef),
            chunked: Some(ChunkPlan {
                missing: manifest.chunks[1..].to_vec(),
                manifest,
                mirrors: vec![
                    MirrorCandidate {
                        location: "m1:1071".into(),
                        zone: Some("east".into()),
                        healthy: true,
                    },
                    MirrorCandidate {
                        location: "m2:1071".into(),
                        zone: None,
                        healthy: false,
                    },
                ],
            }),
        }),
        DrvMsg::Error {
            code: DrvErrCode::PermissionDenied,
            message: "no".into(),
        },
        DrvMsg::FileRequest {
            location: "loc-1".into(),
            transfer_method: TransferMethod::Checksum,
        },
        DrvMsg::FileData {
            payload: Bytes::from_static(b"abcdef"),
        },
        DrvMsg::Release {
            database: "orders".into(),
            user: "alice".into(),
            driver: DriverId(1),
        },
        DrvMsg::ReleaseOk,
        DrvMsg::ChunkRequest {
            digests: vec![1, 2, 3],
            transfer_method: TransferMethod::Plain,
        },
        DrvMsg::ChunkData {
            payload: Bytes::from_static(b"chunks"),
        },
        DrvMsg::MirrorAnnounce {
            location: "m1:1071".into(),
            zone: Some("east".into()),
        },
        DrvMsg::MirrorHeartbeat {
            location: "m1:1071".into(),
            chunk_count: 3,
            load: 2,
            coverage: vec![10, 20, 30],
        },
        DrvMsg::MirrorAck { known: true },
        DrvMsg::ActivationReport {
            database: "orders".into(),
            driver: DriverId(2),
            version: None,
            ok: true,
            detail: String::new(),
        },
        DrvMsg::ActivationAck,
        DrvMsg::RenewBatch {
            entries: {
                let renewal = Arc::new(DrvRequest {
                    kind: RequestKind::Renewal {
                        current: DriverId(3),
                    },
                    ..DrvRequest::bootstrap("orders", "alice", "RDBC", "linux-x86_64")
                });
                let bob = DrvRequest::bootstrap("orders", "bob", "RDBC", "linux-x86_64");
                // The third entry repeats the first request under another
                // host: one table item named twice.
                vec![
                    ("app0001".into(), Arc::clone(&renewal)),
                    ("app0002".into(), Arc::new(bob)),
                    ("app0003".into(), renewal),
                ]
            },
        },
        DrvMsg::OfferBatch {
            replies: {
                let renewed = Arc::new(Ok(DrvOffer {
                    driver_id: DriverId(3),
                    driver_version: Some(DriverVersion::new(3, 1, 0)),
                    same_driver: true,
                    lease_ms: 60_000,
                    renew_policy: RenewPolicy::Renew,
                    expiration_policy: ExpirationPolicy::AfterCommit,
                    format: BinaryFormat::Djar,
                    location: "drivers/3".into(),
                    size: 2048,
                    transfer_method: TransferMethod::Plain,
                    options: vec![],
                    signature: None,
                    content_digest: Some(0xfeed_f00d),
                    chunked: None,
                }));
                let refused = Err((DrvErrCode::PermissionDenied, "no seats".into()));
                // The third reply repeats the first.
                vec![Arc::clone(&renewed), Arc::new(refused), renewed]
            },
        },
        DrvMsg::MirrorComplaint {
            location: "mirror-west:1071".into(),
            digest: 0xbad_c0de,
            detail: "chunk payload does not match its digest".into(),
        },
        DrvMsg::RenewRef {
            current: DriverId(3),
            token: 0x5eed_c0de_cafe_f00d,
        },
        DrvMsg::Renewed(LeaseTerms {
            driver_id: DriverId(3),
            lease_ms: 60_000,
            renew_policy: RenewPolicy::Upgrade,
            expiration_policy: ExpirationPolicy::AfterCommit,
        }),
        DrvMsg::ActivationBatch {
            entries: {
                let ok = Arc::new(Activation {
                    database: "orders".into(),
                    driver: DriverId(2),
                    version: Some(DriverVersion::new(2, 0, 0)),
                    ok: true,
                    detail: String::new(),
                });
                let failed = Activation {
                    version: None,
                    ok: false,
                    detail: "injected activation regression".into(),
                    ..(*ok).clone()
                };
                // One failed report named once, and one report three
                // hosts share: a table of two items, four entries.
                vec![
                    ("app0001".into(), Arc::clone(&ok)),
                    ("app0002".into(), Arc::new(failed)),
                    ("app0003".into(), Arc::clone(&ok)),
                    ("app0004".into(), ok),
                ]
            },
        },
        DrvMsg::Fetch(DrvRequest {
            kind: RequestKind::Extension {
                base: DriverId(7),
                name: "gis".into(),
            },
            options: vec![("locale".into(), "fr_FR".into())],
            zone: Some("east".into()),
            ..DrvRequest::bootstrap("orders", "alice", "RDBC", "linux-x86_64")
        }),
        DrvMsg::OfferFile {
            offer: DrvOffer {
                driver_id: DriverId(1),
                driver_version: Some(DriverVersion::new(2, 0, 1)),
                same_driver: false,
                lease_ms: 60_000,
                renew_policy: RenewPolicy::Upgrade,
                expiration_policy: ExpirationPolicy::AfterCommit,
                format: BinaryFormat::Djar,
                location: String::new(),
                size: 6,
                transfer_method: TransferMethod::Checksum,
                options: vec![("fetch_size".into(), "100".into())],
                signature: None,
                content_digest: Some(0xdead_beef),
                chunked: None,
            },
            payload: Bytes::from_static(b"abcdef"),
        },
    ]
}

/// The answer to a renewal by reference the server cannot resolve: one
/// `DRIVOLUTION_ERROR` code beyond the tag list.
pub(crate) fn resend_in_full() -> DrvMsg {
    DrvMsg::Error {
        code: DrvErrCode::ResendInFull,
        message: "no request kept for app0001".into(),
    }
}

/// One wire shape under mutation: a valid frame and its decoder.
pub(crate) struct Subject {
    pub(crate) name: String,
    pub(crate) frame: Bytes,
    /// Restores whatever seals the frame after a mutation, so the mutant
    /// reaches the decoder's fields instead of dying at the checksum.
    pub(crate) reseal: fn(&mut [u8]),
    /// Decodes and drops; `true` when the frame decoded.
    pub(crate) decode: Box<dyn Fn(Bytes) -> bool>,
    /// Decodes; a value (`Ok(true)`) must come back equal from its own
    /// encoding, a typed error is `Ok(false)`.
    pub(crate) roundtrip: Box<dyn Fn(Bytes) -> Result<bool, String>>,
}

fn subject<T: PartialEq + Debug, E>(
    name: impl Into<String>,
    frame: Bytes,
    reseal: fn(&mut [u8]),
    decode: impl Fn(Bytes) -> Result<T, E> + Copy + 'static,
    encode: impl Fn(&T) -> Bytes + 'static,
) -> Subject {
    Subject {
        name: name.into(),
        frame,
        reseal,
        decode: Box::new(move |bytes| decode(bytes).is_ok()),
        roundtrip: Box::new(move |bytes| match decode(bytes) {
            Err(_) => Ok(false),
            Ok(value) => match decode(encode(&value)) {
                Ok(again) if again == value => Ok(true),
                _ => Err(format!("{value:?} does not re-encode")),
            },
        }),
    }
}

fn unsealed(_: &mut [u8]) {}

/// `seal := fnv1a64(everything before it)`, `tail` bytes from the end.
fn reseal(frame: &mut [u8], tail: usize) {
    let at = frame.len() - tail;
    let (body, seal) = frame.split_at_mut(at);
    seal[..8].copy_from_slice(&fnv1a64(body).to_le_bytes());
}

/// DJAR ends in its seal.
fn reseal_djar(frame: &mut [u8]) {
    reseal(frame, 8);
}

/// DZIP ends in its seal and the 4-byte end magic.
fn reseal_dzip(frame: &mut [u8]) {
    reseal(frame, 12);
}

/// Every wire shape a count, size or presence field lives in: the 23
/// `DrvMsg` tags and the resend error, both notices, every minidb
/// message, an image with extensions and options, both archive layouts
/// (as sent, and resealed after each mutation), a manifest and a chunk
/// set.
pub(crate) fn subjects() -> Vec<Subject> {
    let mut out = Vec::new();
    for msg in drv_msgs() {
        let name = format!("DrvMsg tag {}", msg.encode()[0]);
        out.push(subject(
            name,
            msg.encode(),
            unsealed,
            DrvMsg::decode,
            DrvMsg::encode,
        ));
    }
    out.push(subject(
        "DrvMsg tag 3, resend in full",
        resend_in_full().encode(),
        unsealed,
        DrvMsg::decode,
        DrvMsg::encode,
    ));
    for notice in [
        DrvNotice::DriverAvailable {
            database: "orders".into(),
        },
        DrvNotice::DriverRevoked {
            database: "orders".into(),
        },
    ] {
        let name = format!("{notice:?}");
        out.push(subject(
            name,
            notice.encode(),
            unsealed,
            DrvNotice::decode,
            DrvNotice::encode,
        ));
    }
    for msg in [
        ClientMsg::Hello {
            proto: 2,
            database: "db".into(),
            user: "bob".into(),
            auth: ClientAuth::Password("pw".into()),
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
    ] {
        let name = format!("ClientMsg tag {}", msg.encode()[0]);
        out.push(subject(
            name,
            msg.encode(),
            unsealed,
            ClientMsg::decode,
            ClientMsg::encode,
        ));
    }
    for msg in [
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
        ServerMsg::Affected(3),
        ServerMsg::Pong,
        ServerMsg::Closed,
        ServerMsg::Error {
            code: 12,
            msg: "authentication failed: nope".into(),
        },
    ] {
        let name = format!("ServerMsg tag {}", msg.encode()[0]);
        out.push(subject(
            name,
            msg.encode(),
            unsealed,
            ServerMsg::decode,
            ServerMsg::encode,
        ));
    }

    let mut image = DriverImage::new("fuzz-driver", DriverVersion::new(1, 2, 3), 2);
    image.extensions = vec![
        Extension::Gis,
        Extension::Nls {
            locale: "fr_FR".into(),
        },
    ];
    image.default_options = vec![("fetch_size".into(), "100".into())];
    image.preconfigured_target = Some("db1:5432".into());
    out.push(subject(
        "DriverImage",
        image.encode(),
        unsealed,
        DriverImage::decode,
        DriverImage::encode,
    ));

    let sealed = [
        (BinaryFormat::Djar, reseal_djar as fn(&mut [u8])),
        (BinaryFormat::Dzip, reseal_dzip),
    ];
    for (format, resealed) in sealed {
        let mut archive = Archive::new(format);
        archive.add_entry("driver.img", image.encode());
        archive.add_entry("ext/gis", Bytes::from_static(b"gis payload"));
        let decode = move |bytes| Archive::decode(format, bytes);
        for (how, reseal) in [
            ("as sent", unsealed as fn(&mut [u8])),
            ("resealed", resealed),
        ] {
            let name = format!("{format} archive, {how}");
            out.push(subject(
                name,
                archive.encode(),
                reseal,
                decode,
                Archive::encode,
            ));
        }
    }

    let blob = Bytes::from(drivolution::core::entropy_blob(1500, 9));
    let params = ChunkingParams::fixed(256);
    let manifest = ChunkManifest::of_with(&blob, &params);
    let set = ChunkSet {
        chunks: manifest
            .chunks
            .iter()
            .copied()
            .zip(split_with(&blob, &params))
            .collect(),
    };
    let encode_manifest = |m: &ChunkManifest| {
        let mut b = bytes::BytesMut::new();
        m.encode_into(&mut b);
        b.freeze()
    };
    out.push(subject(
        "ChunkManifest",
        encode_manifest(&manifest),
        unsealed,
        |mut bytes| ChunkManifest::decode(&mut bytes),
        encode_manifest,
    ));
    out.push(subject(
        "ChunkSet",
        set.encode(),
        unsealed,
        ChunkSet::decode,
        ChunkSet::encode,
    ));
    out
}

/// Every mutant of `frame`: at every offset, a window of 1, 2, 4 or 8
/// bytes overwritten with `0xFF…` and with `0x00…` — what a hostile
/// count, length, size or presence byte looks like. Exhaustive, no RNG.
pub(crate) fn for_each_mutant(subject: &Subject, mut visit: impl FnMut(&str, Bytes)) {
    let len = subject.frame.len();
    for width in [1usize, 2, 4, 8] {
        for offset in 0..(len + 1).saturating_sub(width) {
            for fill in [0xFFu8, 0x00] {
                let mut mutant = subject.frame.to_vec();
                mutant[offset..offset + width].fill(fill);
                (subject.reseal)(&mut mutant);
                let what = format!("{} @{offset}+{width}={fill:#04x}", subject.name);
                visit(&what, Bytes::from(mutant));
            }
        }
    }
}
