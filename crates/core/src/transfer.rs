//! Driver file-transfer security (paper §3.1).
//!
//! Three methods, matching [`TransferMethod`]:
//!
//! * **Plain** — "an FTP-like protocol": raw bytes.
//! * **Checksum** — integrity digest appended; detects corruption but not
//!   substitution.
//! * **Sealed** — the paper's "encrypted authenticated SSL channel": the
//!   server presents a certificate, the bootloader verifies it against its
//!   trust anchors, and the payload is enciphered and MAC'd under a
//!   session key.
//!
//! ## One pass
//!
//! The MAC is over the ciphertext, and the keystream XOR has every
//! ciphertext lane in hand — once. Sealing, the server XORs a plaintext
//! lane and folds the lane it stores; unsealing, the client folds the lane
//! it reads and then overwrites it with plaintext, in the buffer the frame
//! arrived in. The MAC is compared when the pass ends, and on a mismatch
//! that buffer is dropped inside [`unwrap`]: no deciphered byte is
//! returned, parsed or hashed unless the MAC over what arrived matched. A
//! frame somebody else still holds is copied once first, never modified.
//!
//! ## Substitution note
//!
//! The sealed channel is a **simulation** of TLS: certificates are
//! fingerprint structs, the cipher is an XOR keystream, and the MAC an FNV
//! digest. It faithfully models the *decisions* (trust-anchor check,
//! tamper detection, refusing untrusted servers) against non-adaptive
//! faults — not real cryptography. See DESIGN.md.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};

use netsim::codec::{get_bytes, get_str, Wire};

use crate::digest::{fnv1a64_parts, fold_lane, fold_words_rewriting, parts_prefix};
use crate::error::{DrvError, DrvResult};
use crate::policy::TransferMethod;

/// A server identity certificate for the sealed channel. The holder of
/// the certificate keeps the count its sealed envelopes draw nonces from,
/// shared by every clone: a nonce is unique per key, and two worlds that
/// each issue their own certificate seal the same bytes alike.
#[derive(Clone, Debug)]
pub struct Certificate {
    host: String,
    serial: u64,
    nonces: Arc<AtomicU64>,
}

impl PartialEq for Certificate {
    fn eq(&self, other: &Self) -> bool {
        (&self.host, self.serial) == (&other.host, other.serial)
    }
}

impl Eq for Certificate {}

impl Certificate {
    /// Issues a certificate for `host` with the given serial; its first
    /// sealed envelope carries nonce 1.
    pub fn issue(host: impl Into<String>, serial: u64) -> Self {
        Certificate {
            host: host.into(),
            serial,
            nonces: Arc::new(AtomicU64::new(1)),
        }
    }

    /// The certified host name.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Stable fingerprint a bootloader pins.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64_parts(&[b"cert", self.host.as_bytes(), &self.serial.to_le_bytes()])
    }

    fn encoded_len(&self) -> usize {
        4 + self.host.len() + 8
    }

    fn encode_into(&self, b: &mut BytesMut) {
        netsim::codec::put_str(b, &self.host);
        b.put_u64_le(self.serial);
    }

    fn decode(buf: &mut Bytes) -> DrvResult<Self> {
        Ok(Certificate {
            host: get_str(buf, "cert host")?,
            serial: u64::get(buf, "cert serial")?,
            nonces: Arc::default(),
        })
    }
}

/// Trust anchors held by a bootloader: the set of pinned certificate
/// fingerprints.
#[derive(Clone, Debug, Default)]
pub struct ChannelTrust {
    pinned: HashSet<u64>,
}

impl ChannelTrust {
    /// An empty trust set (all sealed transfers are refused).
    pub fn new() -> Self {
        ChannelTrust::default()
    }

    /// Pins a certificate.
    pub fn pin(&mut self, cert: &Certificate) {
        self.pinned.insert(cert.fingerprint());
    }

    /// Whether `cert` is pinned.
    pub fn trusts(&self, cert: &Certificate) -> bool {
        self.pinned.contains(&cert.fingerprint())
    }
}

/// The sealed channel's keystream and MAC over `data` in one pass, in
/// place (module docs, "One pass"). Counter mode: keystream block `i` is
/// `fnv1a64_parts(&[key_le, i_le])`, whose two length lanes and key lane
/// are the same for every block — they fold once into a prefix, and each
/// block is one lane step on the counter.
fn keystream_and_mac(key: u64, data: &mut [u8], unsealing: bool) -> u64 {
    let keyed = fnv1a64_parts(&[&key.to_le_bytes()]);
    let stream = parts_prefix(keyed, 8);
    let mac = parts_prefix(keyed, data.len());
    fold_words_rewriting(mac, data, |i, lane| {
        let other = lane ^ fold_lane(stream, i);
        (other, if unsealing { lane } else { other })
    })
}

fn session_key(cert: &Certificate, nonce: u64) -> u64 {
    fnv1a64_parts(&[
        b"session",
        &cert.fingerprint().to_le_bytes(),
        &nonce.to_le_bytes(),
    ])
}

/// Wraps `payload` for transfer under `method`.
///
/// `cert` is required for [`TransferMethod::Sealed`] (the serving host's
/// certificate).
///
/// # Errors
///
/// [`DrvError::TransferFailed`] when sealing is requested without a
/// certificate, or the method is `Any` (unresolved).
pub fn wrap(
    method: TransferMethod,
    payload: &[u8],
    cert: Option<&Certificate>,
) -> DrvResult<Bytes> {
    // Sized exactly up front: a buffer grown to fit the payload doubles
    // on the trailing digest.
    let mut b = BytesMut::with_capacity(wrapped_len(method, payload.len(), cert));
    wrap_into(&mut b, method, payload, cert)?;
    Ok(b.freeze())
}

/// Length of the envelope [`wrap_into`] appends around `payload_len`
/// bytes: what a frame announces before the envelope behind it exists.
pub fn wrapped_len(
    method: TransferMethod,
    payload_len: usize,
    cert: Option<&Certificate>,
) -> usize {
    let extra = match method {
        TransferMethod::Any | TransferMethod::Plain => 0,
        TransferMethod::Checksum => 8,
        TransferMethod::Sealed => cert.map_or(0, Certificate::encoded_len) + 8 + 8,
    };
    1 + 4 + payload_len + extra
}

/// [`wrap`], appending to a buffer sized with [`wrapped_len`]: a bulk
/// frame is its head and then this, so the payload is copied once.
///
/// # Errors
///
/// As [`wrap`]; `b` is then unchanged.
pub fn wrap_into(
    b: &mut BytesMut,
    method: TransferMethod,
    payload: &[u8],
    cert: Option<&Certificate>,
) -> DrvResult<()> {
    match method {
        TransferMethod::Any => {
            return Err(DrvError::TransferFailed(
                "transfer method ANY must be resolved before wrapping".into(),
            ))
        }
        TransferMethod::Plain => {
            b.put_i8(method.code());
            netsim::codec::put_bytes(b, payload);
        }
        TransferMethod::Checksum => {
            b.put_i8(method.code());
            netsim::codec::put_bytes(b, payload);
            b.put_u64_le(fnv1a64_parts(&[payload]));
        }
        TransferMethod::Sealed => {
            let cert = cert.ok_or_else(|| {
                DrvError::TransferFailed("sealed transfer requires a server certificate".into())
            })?;
            let nonce = cert.nonces.fetch_add(1, Ordering::Relaxed);
            wrap_with_nonce(b, cert, nonce, payload);
        }
    }
    Ok(())
}

/// Appends the sealed envelope; the nonce is explicit so tests can pin it.
fn wrap_with_nonce(b: &mut BytesMut, cert: &Certificate, nonce: u64, payload: &[u8]) {
    let key = session_key(cert, nonce);
    b.put_i8(TransferMethod::Sealed.code());
    cert.encode_into(b);
    b.put_u64_le(nonce);
    netsim::codec::put_bytes(b, payload);
    let head = b.len() - payload.len();
    let mac = keystream_and_mac(key, b.split_at_mut(head).1, false);
    b.put_u64_le(mac);
}

/// Unwraps a transfer envelope, enforcing the expected `method` and (for
/// sealed envelopes) the bootloader's `trust` anchors.
///
/// # Errors
///
/// * [`DrvError::TransferFailed`] — wrong method, corruption, bad MAC.
/// * [`DrvError::CertificateUntrusted`] — sealed envelope from an
///   unpinned certificate (the paper's man-in-the-middle defence).
pub fn unwrap(method: TransferMethod, bytes: Bytes, trust: &ChannelTrust) -> DrvResult<Bytes> {
    let mut buf = bytes;
    // The envelope's first byte is the `xfer` code of the method that
    // wrapped it; `Any` accepts whatever the server chose.
    let tag = u8::get(&mut buf, "transfer tag")?;
    let got = TransferMethod::from_code(tag as i8);
    if method != TransferMethod::Any && got != Some(method) {
        return Err(DrvError::TransferFailed(format!(
            "expected transfer method {method}, got tag {tag}"
        )));
    }
    match got {
        Some(TransferMethod::Plain) => Ok(get_bytes(&mut buf, "plain payload")?),
        Some(TransferMethod::Checksum) => {
            let payload = get_bytes(&mut buf, "checksum payload")?;
            let sum = u64::get(&mut buf, "checksum")?;
            if fnv1a64_parts(&[&payload]) != sum {
                return Err(DrvError::TransferFailed(
                    "checksum mismatch: transfer corrupted".into(),
                ));
            }
            Ok(payload)
        }
        Some(TransferMethod::Sealed) => {
            let cert = Certificate::decode(&mut buf)?;
            if !trust.trusts(&cert) {
                return Err(DrvError::CertificateUntrusted(format!(
                    "certificate for {} (fingerprint {:016x}) is not pinned",
                    cert.host(),
                    cert.fingerprint()
                )));
            }
            let nonce = u64::get(&mut buf, "nonce")?;
            let ct = get_bytes(&mut buf, "ciphertext")?;
            let mac = u64::get(&mut buf, "mac")?;
            // In place when the frame has no other reader (a bootloader
            // that just decoded it), into one exact copy otherwise.
            drop(buf);
            let mut plain = ct
                .try_into_mut()
                .unwrap_or_else(|shared| BytesMut::from(&shared[..]));
            if keystream_and_mac(session_key(&cert, nonce), &mut plain, true) != mac {
                return Err(DrvError::TransferFailed(
                    "mac mismatch: sealed transfer tampered".into(),
                ));
            }
            Ok(plain.freeze())
        }
        Some(TransferMethod::Any) | None => Err(DrvError::TransferFailed(format!(
            "unknown transfer tag {tag}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trust_for(cert: &Certificate) -> ChannelTrust {
        let mut t = ChannelTrust::new();
        t.pin(cert);
        t
    }

    /// The keystream pass every build up to PR 20 ran on its own (the MAC
    /// was a second pass, `fnv1a64_parts` over the result): with that,
    /// the reference [`keystream_and_mac`] is held against.
    fn apply_keystream(key: u64, data: &mut [u8]) {
        let prefix = fold_lane(fnv1a64_parts(&[&key.to_le_bytes()]), 8);
        let (words, tail) = data.as_chunks_mut::<8>();
        for (i, word) in words.iter_mut().enumerate() {
            *word = (u64::from_le_bytes(*word) ^ fold_lane(prefix, i as u64)).to_le_bytes();
        }
        let block = fold_lane(prefix, words.len() as u64).to_le_bytes();
        for (b, k) in tail.iter_mut().zip(block) {
            *b ^= k;
        }
    }

    /// The byte-wise keystream every build up to PR 15 shipped: the
    /// reference [`apply_keystream`] must match bit for bit.
    fn keystream_block(key: u64, i: u64) -> [u8; 8] {
        fnv1a64_parts(&[&key.to_le_bytes(), &i.to_le_bytes()]).to_le_bytes()
    }

    fn xor_stream(key: u64, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len());
        for (i, chunk) in data.chunks(8).enumerate() {
            let block = keystream_block(key, i as u64);
            for (j, b) in chunk.iter().enumerate() {
                out.push(b ^ block[j]);
            }
        }
        out
    }

    #[test]
    fn keystream_matches_the_bytewise_reference() {
        for key in [0x0123_4567_89ab_cdef, u64::MAX] {
            for len in [0, 1, 7, 8, 9, 63, 64, 65, 4099] {
                let data = crate::digest::entropy_blob(len, len as u64);
                let mut fast = data.clone();
                apply_keystream(key, &mut fast);
                assert_eq!(fast, xor_stream(key, &data), "key {key:x} len {len}");
            }
        }
    }

    #[test]
    fn one_pass_equals_keystream_then_mac_in_both_directions() {
        let key = 0x0123_4567_89ab_cdef;
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 4099, 1 << 20] {
            let plain = crate::digest::entropy_blob(len, len as u64);
            let mut ct = plain.clone();
            apply_keystream(key, &mut ct);
            let mac = fnv1a64_parts(&[&key.to_le_bytes(), &ct]);

            let mut sealed = plain.clone();
            assert_eq!(keystream_and_mac(key, &mut sealed, false), mac, "{len}");
            assert_eq!(sealed, ct, "sealing {len}");
            assert_eq!(keystream_and_mac(key, &mut sealed, true), mac, "{len}");
            assert_eq!(sealed, plain, "unsealing {len}");
        }
    }

    #[test]
    fn a_mac_failure_is_decided_on_the_ciphertext_and_returns_nothing() {
        let cert = Certificate::issue("db1", 1);
        let payload = crate::digest::entropy_blob(4099, 9);
        let mut w = BytesMut::new();
        wrap_with_nonce(&mut w, &cert, 7, &payload);
        let key = session_key(&cert, 7);
        let ct_start = 1 + cert.encoded_len() + 8 + 4;
        let mac = fnv1a64_parts(&[&key.to_le_bytes(), &w[ct_start..w.len() - 8]]);
        assert_eq!(w[w.len() - 8..], mac.to_le_bytes());
        // The unsealing pass folds each lane as read, whatever it writes
        // back, so a flipped ciphertext bit moves the MAC it computes...
        let mut bad = w[ct_start..w.len() - 8].to_vec();
        bad[100] ^= 0x10;
        assert_ne!(keystream_and_mac(key, &mut bad, true), mac);
        // ...and `unwrap` answers with the error alone: the buffer the
        // pass left behind is dropped inside it.
        w[ct_start + 100] ^= 0x10;
        let e = unwrap(TransferMethod::Sealed, w.freeze(), &trust_for(&cert));
        assert!(
            matches!(&e, Err(DrvError::TransferFailed(m)) if m.starts_with("mac mismatch")),
            "{e:?}"
        );
    }

    /// Recorded with the nonce below forced: the envelope is a wire
    /// format, not an implementation detail.
    #[test]
    fn sealed_envelope_bytes_are_pinned() {
        const GOLDEN: &str = "02030000006462310100000000000000887766554433221113000000\
                              d4a21bec745caf7e12a401ed6313ed63a1a1043606a6aa724162dc";
        let cert = Certificate::issue("db1", 1);
        let mut w = BytesMut::new();
        wrap_with_nonce(&mut w, &cert, 0x1122_3344_5566_7788, b"golden driver bytes");
        let hex: String = w.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);
        let p = unwrap(TransferMethod::Sealed, w.freeze(), &trust_for(&cert)).unwrap();
        assert_eq!(p, Bytes::from_static(b"golden driver bytes"));
    }

    #[test]
    fn any_flipped_byte_fails_in_place_and_shared() {
        let cert = Certificate::issue("db1", 1);
        let trust = trust_for(&cert);
        let payload = crate::digest::entropy_blob(4099, 7);
        let good = wrap(TransferMethod::Sealed, &payload, Some(&cert)).unwrap();
        let ct_start = 1 + cert.encoded_len() + 8 + 4;
        let ct_end = good.len() - 8;
        let positions = (0..ct_start)
            .chain((ct_start..ct_end).step_by(97))
            .chain(ct_end..good.len());
        for pos in positions {
            let mut bad = good.to_vec();
            bad[pos] ^= 0x01;
            // Sole handle: the decipher would run in place.
            let e = unwrap(TransferMethod::Sealed, Bytes::from(bad.clone()), &trust);
            assert!(e.is_err(), "in place, byte {pos}");
            // A second handle forces the copying decipher, and must read
            // the frame it was handed afterwards.
            let frame = Bytes::from(bad.clone());
            let e = unwrap(TransferMethod::Sealed, frame.clone(), &trust);
            assert!(e.is_err(), "shared, byte {pos}");
            assert_eq!(frame, Bytes::from(bad), "byte {pos}");
        }
    }

    #[test]
    fn decipher_leaves_other_handles_untouched() {
        let cert = Certificate::issue("db1", 1);
        let payload = crate::digest::entropy_blob(4099, 8);
        let frame = wrap(TransferMethod::Sealed, &payload, Some(&cert)).unwrap();
        let before = frame.to_vec();
        let p = unwrap(TransferMethod::Sealed, frame.clone(), &trust_for(&cert)).unwrap();
        assert_eq!(p, Bytes::from(payload.clone()));
        assert_eq!(frame, Bytes::from(before));
        // The sole-handle path yields the same plaintext.
        let p = unwrap(TransferMethod::Sealed, frame, &trust_for(&cert)).unwrap();
        assert_eq!(p, Bytes::from(payload));
    }

    #[test]
    fn plain_roundtrip() {
        let w = wrap(TransferMethod::Plain, b"driver", None).unwrap();
        let p = unwrap(TransferMethod::Plain, w, &ChannelTrust::new()).unwrap();
        assert_eq!(p, Bytes::from_static(b"driver"));
    }

    #[test]
    fn checksum_roundtrip_and_corruption() {
        let w = wrap(TransferMethod::Checksum, b"driver-bytes", None).unwrap();
        let p = unwrap(TransferMethod::Checksum, w.clone(), &ChannelTrust::new()).unwrap();
        assert_eq!(p, Bytes::from_static(b"driver-bytes"));
        let mut bad = w.to_vec();
        bad[6] ^= 0x01;
        let e = unwrap(
            TransferMethod::Checksum,
            Bytes::from(bad),
            &ChannelTrust::new(),
        );
        assert!(matches!(e, Err(DrvError::TransferFailed(_))));
    }

    #[test]
    fn sealed_roundtrip() {
        let cert = Certificate::issue("db1", 1);
        let w = wrap(TransferMethod::Sealed, b"secret driver", Some(&cert)).unwrap();
        let p = unwrap(TransferMethod::Sealed, w, &trust_for(&cert)).unwrap();
        assert_eq!(p, Bytes::from_static(b"secret driver"));
    }

    #[test]
    fn sealed_hides_plaintext() {
        let cert = Certificate::issue("db1", 1);
        let w = wrap(TransferMethod::Sealed, b"SECRETSECRETSECRET", Some(&cert)).unwrap();
        assert!(!w.windows(6).any(|win| win == b"SECRET"));
    }

    #[test]
    fn untrusted_certificate_rejected() {
        let cert = Certificate::issue("evil-middlebox", 666);
        let w = wrap(TransferMethod::Sealed, b"driver", Some(&cert)).unwrap();
        let good_cert = Certificate::issue("db1", 1);
        let e = unwrap(TransferMethod::Sealed, w, &trust_for(&good_cert));
        assert!(matches!(e, Err(DrvError::CertificateUntrusted(_))));
    }

    #[test]
    fn sealed_tamper_detected() {
        let cert = Certificate::issue("db1", 1);
        let w = wrap(TransferMethod::Sealed, b"driver-payload-bytes", Some(&cert)).unwrap();
        let trust = trust_for(&cert);
        // Flip one ciphertext byte (past cert + nonce).
        let mut bad = w.to_vec();
        let pos = bad.len() - 12;
        bad[pos] ^= 0xff;
        let e = unwrap(TransferMethod::Sealed, Bytes::from(bad), &trust);
        assert!(e.is_err());
    }

    #[test]
    fn method_mismatch_rejected() {
        let w = wrap(TransferMethod::Plain, b"x", None).unwrap();
        assert!(unwrap(TransferMethod::Sealed, w, &ChannelTrust::new()).is_err());
        let cert = Certificate::issue("db1", 1);
        let w = wrap(TransferMethod::Sealed, b"x", Some(&cert)).unwrap();
        assert!(unwrap(TransferMethod::Plain, w, &trust_for(&cert)).is_err());
    }

    /// The method byte is read as an `xfer` code: a byte that is not the
    /// expected method's, `0xFF` (`Any`, which no envelope is wrapped
    /// under) and every unknown code included, fails the transfer.
    #[test]
    fn every_method_byte_but_the_expected_one_fails_the_transfer() {
        let plain = wrap(TransferMethod::Plain, b"x", None).unwrap();
        for method in (i8::MIN..=i8::MAX).filter_map(TransferMethod::from_code) {
            for tag in 0..=u8::MAX {
                let mut envelope = plain.to_vec();
                envelope[0] = tag;
                let r = unwrap(method, Bytes::from(envelope), &ChannelTrust::new());
                match TransferMethod::from_code(tag as i8) {
                    // A concrete method the caller accepts: its body decides.
                    Some(m)
                        if m != TransferMethod::Any
                            && (method == m || method == TransferMethod::Any) => {}
                    _ => assert!(
                        matches!(r, Err(DrvError::TransferFailed(_))),
                        "{method} under tag {tag}: {r:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn any_accepts_server_choice_on_unwrap_but_not_wrap() {
        assert!(wrap(TransferMethod::Any, b"x", None).is_err());
        let w = wrap(TransferMethod::Checksum, b"x", None).unwrap();
        let p = unwrap(TransferMethod::Any, w, &ChannelTrust::new()).unwrap();
        assert_eq!(p, Bytes::from_static(b"x"));
    }

    #[test]
    fn sealing_requires_cert() {
        assert!(matches!(
            wrap(TransferMethod::Sealed, b"x", None),
            Err(DrvError::TransferFailed(_))
        ));
    }

    #[test]
    fn nonces_differ_between_wraps() {
        let cert = Certificate::issue("db1", 1);
        let a = wrap(TransferMethod::Sealed, b"same", Some(&cert)).unwrap();
        let b = wrap(TransferMethod::Sealed, b"same", Some(&cert)).unwrap();
        assert_ne!(a, b);
    }
}
