//! Robustness property tests: no parser, codec, or unpacker in the
//! workspace may panic on arbitrary input — malformed bytes and SQL must
//! come back as errors.

use bytes::Bytes;
use proptest::prelude::*;

use drivolution::core::chunk::{split_with, ChunkManifest, ChunkSet, ChunkingParams};
use drivolution::core::pack::{pack_driver_padded, unpack_driver, Archive};
use drivolution::core::proto::{DrvMsg, DrvNotice};
use drivolution::core::{BinaryFormat, DriverImage, DriverVersion, Signature};
use drivolution::minidb::sql::parse;
use drivolution::minidb::wire::{ClientMsg, ServerMsg};
use drivolution::minidb::MiniDb;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sql_parser_never_panics(input in ".{0,120}") {
        let _ = parse(&input);
    }

    #[test]
    fn sql_parser_never_panics_on_sqlish_soup(
        input in "(SELECT|INSERT|WHERE|FROM|VALUES|LIKE|NULL|AND|OR|\\(|\\)|,|\\*|=|'x'|5|\\$p| ){0,40}"
    ) {
        let _ = parse(&input);
    }

    #[test]
    fn executing_arbitrary_sqlish_text_never_panics(
        input in "(SELECT|INSERT INTO t|WHERE|FROM t|VALUES|\\(1\\)|a|,|\\*|=|5| ){0,20}"
    ) {
        let db = MiniDb::new("fuzz");
        let mut s = db.admin_session();
        db.exec(&mut s, "CREATE TABLE t (a INTEGER)").unwrap();
        let _ = db.exec(&mut s, &input);
    }

    #[test]
    fn drv_msg_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = DrvMsg::decode(Bytes::from(bytes));
    }

    #[test]
    fn drv_notice_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..100)) {
        let _ = DrvNotice::decode(Bytes::from(bytes));
    }

    #[test]
    fn minidb_wire_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = ClientMsg::decode(Bytes::from(bytes.clone()));
        let _ = ServerMsg::decode(Bytes::from(bytes));
    }

    #[test]
    fn archive_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        for fmt in [BinaryFormat::Djar, BinaryFormat::Dzip] {
            let _ = Archive::decode(fmt, Bytes::from(bytes.clone()));
            let _ = unpack_driver(fmt, Bytes::from(bytes.clone()));
        }
    }

    #[test]
    fn image_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = DriverImage::decode(Bytes::from(bytes));
    }

    #[test]
    fn signature_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..40)) {
        let _ = Signature::decode(Bytes::from(bytes));
    }

    #[test]
    fn chunk_manifest_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let mut buf = Bytes::from(bytes);
        let _ = ChunkManifest::decode(&mut buf);
    }

    #[test]
    fn chunk_set_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = ChunkSet::decode(Bytes::from(bytes));
    }

    #[test]
    fn manifest_verification_rejects_container_corruption(
        fmt in prop_oneof![Just(BinaryFormat::Djar), Just(BinaryFormat::Dzip)],
        padding in 0..4096usize,
        pos_seed in any::<u32>(),
        flip in 1..=255u8,
    ) {
        // A manifest taken over a packed djar/dzip container must reject
        // every single-byte corruption of that container.
        let image = DriverImage::new("fuzz", DriverVersion::new(1, 0, 0), 1);
        let packed = pack_driver_padded(fmt, &image, padding);
        let manifest = ChunkManifest::of(&packed, 256);
        prop_assert!(manifest.verify(&packed).is_ok());
        let mut bad = packed.to_vec();
        let pos = pos_seed as usize % bad.len();
        bad[pos] ^= flip;
        prop_assert!(manifest.verify(&bad).is_err(), "flip at {pos} accepted");
    }

    #[test]
    fn chunk_set_rejects_any_single_byte_corruption(
        payload in prop::collection::vec(any::<u8>(), 1..2000),
        pos_seed in any::<u32>(),
        flip in 1..=255u8,
    ) {
        let bytes = Bytes::from(payload);
        let manifest = ChunkManifest::of(&bytes, 256);
        let set = ChunkSet {
            chunks: manifest
                .chunks
                .iter()
                .copied()
                .zip(split_with(&bytes, &ChunkingParams::fixed(256)))
                .collect(),
        };
        let enc = set.encode();
        prop_assert_eq!(ChunkSet::decode(enc.clone()).unwrap(), set.clone());
        let mut bad = enc.to_vec();
        let pos = pos_seed as usize % bad.len();
        bad[pos] ^= flip;
        // Corruption must surface as an error or a visibly different
        // set — never as silent acceptance of the original content.
        if let Ok(round) = ChunkSet::decode(Bytes::from(bad)) {
            prop_assert_ne!(round, set, "flip at {} accepted silently", pos);
        }
    }
}

/// Every frame tag's decode path must fail *typed* on truncation: every
/// field of every frame is mandatory, so each strict prefix of a valid
/// frame errors with `DrvError::Codec`. Nothing panics and nothing
/// decodes; the typed error carries through for the empty and
/// unknown-tag frames.
#[test]
fn every_frame_tag_truncation_errors_are_typed() {
    use drivolution::core::proto::{
        ChunkPlan, DrvErrCode, DrvOffer, DrvRequest, HaveSummary, MirrorCandidate, RequestKind,
    };
    use drivolution::core::{DriverId, DrvError, ExpirationPolicy, RenewPolicy, TransferMethod};

    let manifest = ChunkManifest::of_with(&[7u8; 40_000], &ChunkingParams::default());

    let msgs = vec![
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
                chunks: manifest.chunks.clone(),
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
            served_bytes: 1024,
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
            entries: vec![
                (
                    "app0001".into(),
                    DrvRequest {
                        kind: RequestKind::Renewal {
                            current: DriverId(3),
                        },
                        ..DrvRequest::bootstrap("orders", "alice", "RDBC", "linux-x86_64")
                    },
                ),
                (
                    "app0002".into(),
                    DrvRequest::bootstrap("orders", "bob", "RDBC", "linux-x86_64"),
                ),
            ],
        },
        DrvMsg::OfferBatch {
            replies: vec![
                Ok(DrvOffer {
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
                }),
                Err((DrvErrCode::PermissionDenied, "no seats".into())),
            ],
        },
        DrvMsg::MirrorComplaint {
            location: "mirror-west:1071".into(),
            digest: 0xbad_c0de,
            detail: "chunk payload does not match its digest".into(),
        },
    ];
    for msg in msgs {
        let frame = msg.encode();
        for cut in 0..frame.len() {
            match DrvMsg::decode(frame.slice(0..cut)) {
                Err(DrvError::Codec(_)) => {}
                other => {
                    panic!("truncated {msg:?} at {cut}: expected a codec error, got {other:?}")
                }
            }
        }
    }
    // Empty frames and unknown tags are typed codec errors too.
    assert!(matches!(
        DrvMsg::decode(Bytes::new()),
        Err(DrvError::Codec(_))
    ));
    assert!(matches!(
        DrvMsg::decode(Bytes::from_static(&[200u8])),
        Err(DrvError::Codec(_))
    ));
}
