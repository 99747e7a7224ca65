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
    // 40 shapes; each still decodes under its own first byte at least.
    assert_eq!(runs, 40 * 256);
    assert!(decoded >= 40, "{decoded} of {runs}");
}
