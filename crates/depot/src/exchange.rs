//! The chunk exchange: `CHUNK_REQUEST` → `CHUNK_DATA`, both halves.
//!
//! Bootloaders and read-through mirrors fetch with [`fetch_chunks`];
//! the primary server and mirrors answer with [`serve_chunks`]. The
//! frame pair, the transfer wrapping and the per-chunk digest check
//! are decided here and nowhere else; callers add only their transport
//! and their own counters.

use bytes::Bytes;

use drivolution_core::chunk::ChunkSet;
use drivolution_core::proto::DrvMsg;
use drivolution_core::{transfer, Certificate, ChannelTrust, DrvError, DrvResult, TransferMethod};

use crate::index::ContentIndex;

/// Client half: asks for `digests` under `method` through `send` (one
/// encoded request in, the encoded reply out) and returns the chunks,
/// each verified against its digest.
///
/// # Errors
///
/// Whatever `send` returns; the typed error of a `DRIVOLUTION_ERROR`
/// reply; [`DrvError::TransferFailed`] / [`DrvError::BadPackage`] /
/// [`DrvError::Codec`] when the payload fails its transfer envelope,
/// a chunk digest, or framing.
pub fn fetch_chunks(
    digests: &[u64],
    method: TransferMethod,
    trust: &ChannelTrust,
    send: impl FnOnce(Bytes) -> DrvResult<Bytes>,
) -> DrvResult<Vec<(u64, Bytes)>> {
    let request = DrvMsg::ChunkRequest {
        digests: digests.to_vec(),
        transfer_method: method,
    };
    match DrvMsg::decode(send(request.encode())?)? {
        DrvMsg::ChunkData { payload } => {
            let raw = transfer::unwrap(method, payload, trust)?;
            Ok(ChunkSet::decode(raw)?.chunks)
        }
        other => Err(other.unexpected("chunk")),
    }
}

/// Server half: answers a `CHUNK_REQUEST` for `digests` from `index`,
/// wrapped under `method` with `cert`. Returns the encoded `CHUNK_DATA`
/// frame, built once around its envelope, and the set it carries (for
/// the caller's served-bytes counters).
///
/// # Errors
///
/// [`DrvError::TransferFailed`] naming the first digest `index` does
/// not hold, or when `method` is unresolved (`Any`).
pub fn serve_chunks(
    index: &ContentIndex,
    digests: &[u64],
    method: TransferMethod,
    cert: &Certificate,
) -> DrvResult<(Bytes, ChunkSet)> {
    let chunks = digests
        .iter()
        .map(|d| {
            let bytes = index
                .chunk(*d)
                .ok_or_else(|| DrvError::TransferFailed(format!("unknown chunk {d:016x}")))?;
            Ok((*d, bytes))
        })
        .collect::<DrvResult<Vec<_>>>()?;
    let set = ChunkSet { chunks };
    let frame = DrvMsg::chunk_data_frame(method, &set.encode(), Some(cert))?;
    Ok((frame, set))
}

#[cfg(test)]
mod tests {
    use super::*;
    use drivolution_core::chunk::ChunkingParams;
    use drivolution_core::proto::DrvErrCode;

    fn indexed() -> (ContentIndex, Vec<u64>) {
        let index = ContentIndex::new();
        let image: Vec<u8> = (0..64 * 1024u32).map(|i| (i * 31 % 251) as u8).collect();
        let digest = index.insert(Bytes::from(image), &ChunkingParams::default());
        let chunks = index.manifest(digest).unwrap().chunks;
        (index, chunks)
    }

    /// Serves straight off `index`, the way `Service::call` does: decode
    /// the request, answer it, turn a failure into a `DRIVOLUTION_ERROR`.
    fn answer(index: &ContentIndex, cert: &Certificate, frame: Bytes) -> Bytes {
        let DrvMsg::ChunkRequest {
            digests,
            transfer_method,
        } = DrvMsg::decode(frame).unwrap()
        else {
            panic!("not a chunk request");
        };
        match serve_chunks(index, &digests, transfer_method, cert) {
            Ok((frame, _)) => frame,
            Err(e) => DrvMsg::error_from(&e).encode(),
        }
    }

    #[test]
    fn serve_then_fetch_round_trips_under_every_method() {
        let (index, digests) = indexed();
        let cert = Certificate::issue("primary", 1);
        let mut trust = ChannelTrust::new();
        trust.pin(&cert);
        for method in [
            TransferMethod::Plain,
            TransferMethod::Checksum,
            TransferMethod::Sealed,
        ] {
            let (_, served) = serve_chunks(&index, &digests, method, &cert).unwrap();
            assert_eq!(served.chunks.len(), digests.len());
            let got = fetch_chunks(&digests, method, &trust, |frame| {
                Ok(answer(&index, &cert, frame))
            })
            .unwrap();
            assert_eq!(got, served.chunks, "{method:?}");
            for (d, bytes) in &got {
                assert_eq!(index.chunk(*d).as_ref(), Some(bytes));
            }
        }
    }

    #[test]
    fn unknown_digest_is_a_transfer_failure_on_both_halves() {
        let (index, mut digests) = indexed();
        digests.push(0xdead_beef);
        let cert = Certificate::issue("primary", 1);
        let served = serve_chunks(&index, &digests, TransferMethod::Checksum, &cert);
        assert!(
            matches!(served, Err(DrvError::TransferFailed(m)) if m.contains("00000000deadbeef"))
        );
        // Over the wire the refusal arrives as the error frame's typed
        // error (TRANSFER_FAILED has no code of its own: `Internal`).
        let got = fetch_chunks(
            &digests,
            TransferMethod::Checksum,
            &ChannelTrust::new(),
            |frame| Ok(answer(&index, &cert, frame)),
        );
        let DrvError::Internal(message) = got.unwrap_err() else {
            panic!("refusal must surface as the error frame's typed error");
        };
        assert!(message.contains("unknown chunk"));
        assert_eq!(
            DrvErrCode::classify(&DrvError::TransferFailed(String::new())),
            DrvErrCode::Internal
        );
    }

    #[test]
    fn flipped_payload_byte_fails_verification() {
        let (index, digests) = indexed();
        let cert = Certificate::issue("primary", 1);
        let fetch_corrupted = |method| {
            fetch_chunks(&digests, method, &ChannelTrust::new(), |frame| {
                let mut reply = answer(&index, &cert, frame).to_vec();
                *reply.last_mut().unwrap() ^= 0xff;
                Ok(Bytes::from(reply))
            })
        };
        // Checksum envelope: the flip breaks the transfer checksum.
        let got = fetch_corrupted(TransferMethod::Checksum);
        assert!(matches!(got, Err(DrvError::TransferFailed(_))), "{got:?}");
        // Plain envelope: nothing but the per-chunk digest catches it.
        let got = fetch_corrupted(TransferMethod::Plain);
        assert!(matches!(got, Err(DrvError::BadPackage(_))), "{got:?}");
    }

    #[test]
    fn wrong_transfer_method_is_refused() {
        let (index, digests) = indexed();
        let cert = Certificate::issue("primary", 1);
        // The server wrapped under Checksum; a client insisting on
        // Sealed cannot open the envelope.
        let got = fetch_chunks(
            &digests,
            TransferMethod::Sealed,
            &ChannelTrust::new(),
            |_frame| {
                let (frame, _) = serve_chunks(&index, &digests, TransferMethod::Checksum, &cert)?;
                Ok(frame)
            },
        );
        assert!(matches!(got, Err(DrvError::TransferFailed(_))), "{got:?}");
        // An unresolved method never reaches the wire.
        let served = serve_chunks(&index, &digests, TransferMethod::Any, &cert);
        assert!(matches!(served, Err(DrvError::TransferFailed(_))));
    }

    #[test]
    fn transport_errors_and_foreign_frames_pass_through_typed() {
        let digests = [1u64, 2];
        let trust = ChannelTrust::new();
        let down = fetch_chunks(&digests, TransferMethod::Plain, &trust, |_| {
            Err(DrvError::Net("link down".into()))
        });
        assert!(matches!(down, Err(DrvError::Net(m)) if m == "link down"));
        let odd = fetch_chunks(&digests, TransferMethod::Plain, &trust, |_| {
            Ok(DrvMsg::ReleaseOk.encode())
        });
        assert!(matches!(odd, Err(DrvError::Codec(m)) if m.contains("unexpected chunk reply")));
    }
}
