//! Robustness property tests: no parser, codec, or unpacker in the
//! workspace may panic on arbitrary input — malformed bytes and SQL must
//! come back as errors.

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use drivolution::cluster::proto::{ClusterFrame, CLUSTER_V2};
use drivolution::core::chunk::{split_with, ChunkManifest, ChunkSet, ChunkingParams};
use drivolution::core::pack::{pack_driver_padded, unpack_driver, Archive};
use drivolution::core::proto::{
    BatchReply, ChunkPlan, DrvErrCode, DrvMsg, DrvNotice, DrvOffer, DrvRequest, HaveSummary,
    MirrorCandidate, RequestKind,
};
use drivolution::core::{
    fnv1a64, ApiVersion, BinaryFormat, DriverId, DriverImage, DriverVersion, ExpirationPolicy,
    RenewPolicy, Signature, SigningKey, TransferMethod,
};
use drivolution::minidb::exec::RowSet;
use drivolution::minidb::sql::parse;
use drivolution::minidb::wire::{ClientAuth, ClientMsg, ServerMsg};
use drivolution::minidb::{MiniDb, Value};

mod frames;

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
    use drivolution::core::DrvError;

    for msg in frames::drv_msgs() {
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

/// Each frame has one encoding: a bool byte other than 0 or 1, and a byte
/// after the last field of any frame or notice, are typed errors (they
/// once decoded as `true`, and as if the byte were not there).
#[test]
fn a_bool_byte_past_one_or_a_byte_after_the_frame_is_a_typed_error() {
    use drivolution::core::DrvError;

    let mut ack = DrvMsg::MirrorAck { known: true }.encode().to_vec();
    assert_eq!(ack.last(), Some(&1), "the bool is the frame's last byte");
    ack.pop();
    ack.push(0xFF);
    let decoded = DrvMsg::decode(Bytes::from(ack));
    assert!(matches!(decoded, Err(DrvError::Codec(_))), "{decoded:?}");
    for msg in frames::drv_msgs() {
        let mut frame = msg.encode().to_vec();
        frame.push(0);
        let decoded = DrvMsg::decode(Bytes::from(frame));
        assert!(matches!(decoded, Err(DrvError::Codec(_))), "{msg:?}");
    }
    let notice = DrvNotice::DriverRevoked {
        database: "orders".into(),
    };
    let mut frame = notice.encode().to_vec();
    frame.push(0);
    let decoded = DrvNotice::decode(Bytes::from(frame));
    assert!(matches!(decoded, Err(DrvError::Codec(_))), "{decoded:?}");
}

/// The structure-aware half of the promise above: every count, length,
/// size and presence field of every wire shape, overwritten with all-ones
/// and all-zeroes at every width it could have. A mutant decodes to a
/// typed error or to a value that survives its own encoding; it never
/// panics and never aborts on a reservation the frame cannot back
/// (`tests/alloc_budget.rs` holds the same mutants to a byte budget).
#[test]
fn every_window_mutant_of_every_frame_is_an_error_or_reencodes() {
    let mut decodes = 0u32;
    let mut decoded = 0u32;
    for subject in frames::subjects() {
        let pristine = (subject.roundtrip)(subject.frame.clone());
        assert_eq!(pristine, Ok(true), "{}", subject.name);
        frames::for_each_mutant(&subject, |what, mutant| {
            decodes += 1;
            match (subject.roundtrip)(mutant) {
                Ok(value) => decoded += u32::from(value),
                Err(e) => panic!("{what}: {e}"),
            }
        });
    }
    // Both outcomes are exercised: most mutants are errors, a good share
    // (a zeroed count, a widened string) still decode.
    assert!(
        decodes > 25_000 && decoded > decodes / 10,
        "{decoded} of {decodes}"
    );
}

/// Enum-byte mutation: byte 0 of every wire shape (a frame tag for every
/// protocol message), set to each of 0..=255 and resealed where the shape
/// is sealed. A byte no tag enum declares is a typed error; a declared tag
/// under another tag's body decodes to a typed error or to a value that
/// survives its own encoding.
#[test]
fn every_tag_byte_under_every_frame_body_is_an_error_or_reencodes() {
    let mut runs = 0u32;
    let mut decoded = 0u32;
    for subject in frames::subjects() {
        for tag in 0..=u8::MAX {
            let mut frame = subject.frame.to_vec();
            frame[0] = tag;
            (subject.reseal)(&mut frame);
            runs += 1;
            match (subject.roundtrip)(Bytes::from(frame)) {
                Ok(value) => decoded += u32::from(value),
                Err(e) => panic!("{} under tag {tag}: {e}", subject.name),
            }
        }
    }
    // 46 shapes; each still decodes under its own first byte at least.
    assert_eq!(runs, 46 * 256);
    assert!(decoded >= 46, "{decoded} of {runs}");
}

/// Frames whose optional fields `tests/frames` leaves unset: a `REQ` with
/// every field present, an `OFFER` with a signature and no digest, the
/// other two credentials, a row of every value kind, and a cluster frame.
fn frames_with_every_field() -> Vec<(&'static str, Bytes)> {
    let full = DrvRequest {
        kind: RequestKind::Extension {
            base: DriverId(-3),
            name: "gis".into(),
        },
        password: Some("pw".into()),
        api_version: Some(ApiVersion::exact(1, 0)),
        preferred_format: Some(BinaryFormat::Dzip),
        preferred_version: Some(DriverVersion::new(2, 1, 0)),
        transfer_method: TransferMethod::Any,
        options: vec![
            ("locale".into(), "fr_FR".into()),
            ("gis".into(), "true".into()),
        ],
        have: Some(HaveSummary {
            images: vec![5, 6],
            params: ChunkingParams::cdc_normalized(64, 256, 1024, 2),
            base: Some(6),
        }),
        zone: Some("west".into()),
        ..DrvRequest::bootstrap("orders", "alice", "RDBC", "linux-x86_64")
    };
    let signed = DrvOffer {
        driver_id: DriverId(9),
        driver_version: None,
        same_driver: true,
        lease_ms: 1,
        renew_policy: RenewPolicy::Revoke,
        expiration_policy: ExpirationPolicy::Immediate,
        format: BinaryFormat::Dzip,
        location: String::new(),
        size: 0,
        transfer_method: TransferMethod::Checksum,
        options: Vec::new(),
        signature: Some(SigningKey::from_seed(1).sign(b"bytes")),
        content_digest: None,
        chunked: None,
    };
    let hello = |auth| ClientMsg::Hello {
        proto: 3,
        database: "db".into(),
        user: "bob".into(),
        auth,
    };
    let row = vec![
        Value::Null,
        Value::Integer(-1),
        Value::BigInt(1 << 40),
        Value::str("x"),
        Value::Blob(vec![1, 2, 3].into()),
        Value::Timestamp(1_000),
        Value::Boolean(false),
    ];
    let columns = (0..row.len()).map(|i| format!("c{i}")).collect();
    vec![
        ("REQ, every field", DrvMsg::Request(full).encode()),
        ("OFFER, signed", DrvMsg::Offer(signed).encode()),
        (
            "ERROR, internal",
            DrvMsg::Error {
                code: DrvErrCode::Internal,
                message: "boom".into(),
            }
            .encode(),
        ),
        ("Hello, challenge", hello(ClientAuth::Challenge).encode()),
        ("Hello, token", hello(ClientAuth::Token(42)).encode()),
        (
            "Rows, every value",
            ServerMsg::Rows(RowSet {
                columns,
                rows: vec![row],
            })
            .encode(),
        ),
        (
            "ClusterFrame",
            ClusterFrame::new(CLUSTER_V2, Bytes::from_static(b"inner-bytes")).encode(),
        ),
    ]
}

/// `fnv1a64` of every frame's encoding: each wire shape `tests/frames`
/// builds, then the frames above. Recorded before frames were declared
/// through `wire_frame!` (tags 18 to 22 and the resend error when
/// they were added); compared as one table, so a layout change prints
/// every row that moved.
const PINNED_FRAMES: [(&str, u64); 53] = [
    ("DrvMsg tag 0", 0xc2c5_bcf9_8133_c332),
    ("DrvMsg tag 1", 0xb1ca_377e_dce6_d81a),
    ("DrvMsg tag 2", 0x8d69_0d5d_eb62_d118),
    ("DrvMsg tag 3", 0x293f_c3a0_8c1d_7a86),
    ("DrvMsg tag 4", 0x5920_e110_bf62_37c7),
    ("DrvMsg tag 5", 0x0451_8f82_36dc_1a60),
    ("DrvMsg tag 6", 0xbdc1_4014_d329_a1bb),
    ("DrvMsg tag 7", 0xaf63_ba4c_8601_b2c6),
    ("DrvMsg tag 8", 0xa12c_1d8e_13a8_206d),
    ("DrvMsg tag 9", 0x3258_6fd4_49c1_2bef),
    ("DrvMsg tag 10", 0x0559_412d_1ea6_92b2),
    ("DrvMsg tag 11", 0xa42e_0385_f1e5_04b0),
    ("DrvMsg tag 12", 0x0840_1f07_b4f6_fade),
    ("DrvMsg tag 13", 0x69b0_1b42_754b_48dd),
    ("DrvMsg tag 14", 0xaf63_c34c_8601_c211),
    ("DrvMsg tag 15", 0xcbe2_b55c_039b_4856),
    ("DrvMsg tag 16", 0xc4fb_b3f3_cdd0_cfb1),
    ("DrvMsg tag 17", 0xf351_3f29_1593_e81a),
    ("DrvMsg tag 18", 0x64c9_04c8_59b1_f130),
    ("DrvMsg tag 19", 0xd653_f82e_929d_e5de),
    ("DrvMsg tag 20", 0xb94d_7a88_d55b_9ae6),
    ("DrvMsg tag 21", 0x1669_3c5d_3589_e27e),
    ("DrvMsg tag 22", 0x774f_ae13_54b5_684d),
    ("DrvMsg tag 3, resend in full", 0x3786_9290_a0da_f326),
    (
        "DriverAvailable { database: \"orders\" }",
        0xe9ee_fd69_0b04_65a6,
    ),
    (
        "DriverRevoked { database: \"orders\" }",
        0x2bdf_0f84_e3c4_2faf,
    ),
    ("ClientMsg tag 0", 0x3231_1657_c3a3_2ace),
    ("ClientMsg tag 1", 0x2153_7041_27d7_2ab3),
    ("ClientMsg tag 2", 0xda7a_03a1_6686_74cd),
    ("ClientMsg tag 3", 0xb03b_dad4_8bc5_2dd4),
    ("ClientMsg tag 4", 0xd23d_6947_5f64_4c7e),
    ("ClientMsg tag 5", 0xd238_2547_5f5e_3d1b),
    ("ServerMsg tag 0", 0xca45_f147_5795_90f2),
    ("ServerMsg tag 1", 0xd1c9_703d_8dd4_16b3),
    ("ServerMsg tag 2", 0xdf9b_088f_67c4_6951),
    ("ServerMsg tag 3", 0x3f3f_694b_8a1c_e6b1),
    ("ServerMsg tag 4", 0xaf63_b94c_8601_b113),
    ("ServerMsg tag 5", 0xaf63_b84c_8601_af60),
    ("ServerMsg tag 6", 0x69ba_44ac_2074_39f0),
    ("DriverImage", 0x62a3_855b_32b4_d029),
    ("djar archive, as sent", 0x5353_a46a_be31_ee70),
    ("djar archive, resealed", 0x5353_a46a_be31_ee70),
    ("dzip archive, as sent", 0x2de6_c3d9_1596_a007),
    ("dzip archive, resealed", 0x2de6_c3d9_1596_a007),
    ("ChunkManifest", 0xd0cf_6dcd_731a_748a),
    ("ChunkSet", 0xd6da_bdf9_7d77_e34a),
    ("REQ, every field", 0x98bf_5401_bfc3_16ae),
    ("OFFER, signed", 0xbc43_ff03_25ab_5b12),
    ("ERROR, internal", 0x53eb_2d30_5cd5_ca6e),
    ("Hello, challenge", 0xf580_c3b7_0aaa_f0aa),
    ("Hello, token", 0x1062_75c1_6d1b_82fb),
    ("Rows, every value", 0x2203_3114_a061_cbfa),
    ("ClusterFrame", 0xce3b_7d1f_a3cf_ed3c),
];

#[test]
fn every_frame_encodes_to_its_pinned_bytes() {
    let named = frames::subjects().into_iter().map(|s| (s.name, s.frame));
    let more = frames_with_every_field().into_iter();
    let row = |name: &str, digest: u64| format!("({name:?}, {digest:#018x})");
    let computed: Vec<String> = named
        .chain(more.map(|(name, frame)| (name.to_string(), frame)))
        .map(|(name, frame)| row(&name, fnv1a64(&frame)))
        .collect();
    let pinned: Vec<String> = PINNED_FRAMES.map(|(name, d)| row(name, d)).into();
    assert_eq!(computed, pinned);
}

/// A count is never narrowed apart from its items: a list longer than
/// its count's width travels as its first `u16::MAX` items under a count
/// that says so, and every field after it still decodes. Each of these
/// five lists used to write `len() as u16` (65 537 → 1) ahead of all its
/// items, and the frame did not decode. A request reaches that size
/// through `BootloaderConfig::with_request_option`.
#[test]
fn a_list_past_its_count_width_writes_as_many_items_as_it_counts() {
    let max = usize::from(u16::MAX);
    let pairs: Vec<(String, String)> = (0..max + 2).map(|i| (i.to_string(), "v".into())).collect();

    let request = DrvRequest {
        options: pairs.clone(),
        zone: Some("east".into()),
        ..DrvRequest::bootstrap("orders", "alice", "RDBC", "linux-x86_64")
    };
    let Ok(DrvMsg::Request(got)) = DrvMsg::decode(DrvMsg::Request(request.clone()).encode()) else {
        panic!("a request with {} options does not decode", max + 2);
    };
    assert_eq!(got.options, pairs[..max]);
    assert_eq!(got.zone, request.zone);

    let manifest = ChunkManifest::of(&[1u8; 4096], 1024);
    let mirror = |i: usize| MirrorCandidate {
        location: format!("m{i}"),
        zone: None,
        healthy: true,
    };
    let offer = DrvOffer {
        driver_id: DriverId(1),
        driver_version: None,
        same_driver: false,
        lease_ms: 1,
        renew_policy: RenewPolicy::Renew,
        expiration_policy: ExpirationPolicy::AfterClose,
        format: BinaryFormat::Djar,
        location: "drivers/1".into(),
        size: 4096,
        transfer_method: TransferMethod::Plain,
        options: pairs.clone(),
        signature: None,
        content_digest: Some(7),
        chunked: Some(ChunkPlan {
            missing: manifest.chunks.clone(),
            manifest,
            mirrors: (0..max + 2).map(mirror).collect(),
        }),
    };
    let Ok(DrvMsg::Offer(got)) = DrvMsg::decode(DrvMsg::Offer(offer.clone()).encode()) else {
        panic!(
            "an offer with {} options and mirrors does not decode",
            max + 2
        );
    };
    assert_eq!(got.options, pairs[..max]);
    assert_eq!(got.content_digest, Some(7));
    let plan = got.chunked.expect("the plan travels");
    assert_eq!(plan.mirrors, (0..max).map(mirror).collect::<Vec<_>>());

    let params: Vec<(String, Value)> = (0..max + 2).map(|i| (i.to_string(), Value::Null)).collect();
    let query = ClientMsg::QueryParams {
        session: 7,
        sql: "SELECT 1".into(),
        params: params.clone(),
    };
    let Ok(ClientMsg::QueryParams { params: got, .. }) = ClientMsg::decode(query.encode()) else {
        panic!("a query with {} parameters does not decode", max + 2);
    };
    assert_eq!(got, params[..max]);

    let columns: Vec<String> = (0..max + 2).map(|i| format!("c{i}")).collect();
    let row: Vec<Value> = (0..max + 2).map(|i| Value::Integer(i as i64)).collect();
    let rows = ServerMsg::Rows(RowSet {
        columns: columns.clone(),
        rows: vec![row.clone()],
    });
    let Ok(ServerMsg::Rows(got)) = ServerMsg::decode(rows.encode()) else {
        panic!("a row set of {} columns does not decode", max + 2);
    };
    assert_eq!(got.columns, columns[..max]);
    assert_eq!(got.rows, vec![row[..max].to_vec()]);
}

/// `get_items` refuses a count its frame cannot hold at the item's
/// `MIN_BYTES`, so each counted item's minimum must be the length of its
/// shortest encoding — and the figure each decoder used to hand-count.
#[test]
fn every_counted_item_minimum_is_its_shortest_encoding() {
    use drivolution::netsim::codec::{encode, Interns, Wire};

    fn row<T: Wire>(name: &'static str, shortest: T) -> (&'static str, usize, usize) {
        (name, T::MIN_BYTES, encode(&shortest).len())
    }
    // A batch entry travels as its host and an index, a reply entry as
    // its index; the request or reply itself travels once in the table.
    fn entry<E: Interns>(name: &'static str, shortest: impl Wire) -> (&'static str, usize, usize) {
        (name, E::MIN_BYTES, encode(&shortest).len())
    }
    let request = || DrvRequest::bootstrap("", "", "", "");
    let no_offer: BatchReply = Err((DrvErrCode::Internal, String::new()));
    let computed = [
        row("REQ", request()),
        entry::<(String, Arc<DrvRequest>)>("batch entry", (String::new(), 0u32)),
        row("kv", (String::new(), String::new())),
        entry::<Arc<BatchReply>>("offer-batch reply", 0u32),
        row("offer-batch table reply", no_offer),
        row(
            "mirror candidate",
            MirrorCandidate {
                location: String::new(),
                zone: None,
                healthy: false,
            },
        ),
        row("param", (String::new(), Value::Null)),
        row("column", String::new()),
    ];
    let literal = [
        ("REQ", 26, 26),
        ("batch entry", 8, 8),
        ("kv", 8, 8),
        ("offer-batch reply", 4, 4),
        ("offer-batch table reply", 7, 7),
        ("mirror candidate", 6, 6),
        ("param", 5, 5),
        ("column", 4, 4),
    ];
    assert_eq!(computed, literal);
}
