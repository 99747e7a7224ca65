//! Driver code signing (paper §3.1: "It is also possible to sign drivers,
//! and have a separate trusted wrapper in the bootloader verify
//! signatures").
//!
//! ## Substitution note
//!
//! This is a **simulated** signature scheme built on FNV digests: it
//! faithfully models the trust workflow (vendors sign driver packages; the
//! bootloader holds trusted verifying keys and rejects unsigned or
//! tampered packages) but provides no cryptographic security. See
//! DESIGN.md.

use std::fmt;

use bytes::Bytes;

use netsim::codec::{wire_frame, CodecError, Wire};

use crate::digest::fnv1a64_parts;
use crate::error::{DrvError, DrvResult};

/// A signing key held by a driver publisher (vendor or DBA).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SigningKey {
    secret: u64,
}

/// The matching verification key distributed to bootloaders.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifyingKey {
    // In a real scheme this would be a public key; the simulation keeps
    // the shared secret, type-gated so it cannot be used to sign.
    inner: u64,
}

impl fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VerifyingKey({:016x})", self.key_id())
    }
}

wire_frame! {
    /// A detached signature over driver bytes.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Signature {
        key_id: u64,
        tag: u64,
    }
}

impl SigningKey {
    /// Derives a key pair from a seed (deterministic, for reproducible
    /// tests and benchmarks).
    pub fn from_seed(seed: u64) -> Self {
        SigningKey {
            secret: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ KEY_TWEAK,
        }
    }

    /// The verification key to distribute to bootloaders.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey { inner: self.secret }
    }

    /// Signs `data`.
    pub fn sign(&self, data: &[u8]) -> Signature {
        Signature {
            key_id: key_id_of(self.secret),
            tag: fnv1a64_parts(&[&self.secret.to_le_bytes(), data]),
        }
    }
}

// Fixed tweak so seed-to-secret derivation is not the identity map.
const KEY_TWEAK: u64 = 0x0005_1ee5_0005_1ee5;

fn key_id_of(secret: u64) -> u64 {
    fnv1a64_parts(&[b"key-id", &secret.to_le_bytes()])
}

impl VerifyingKey {
    /// Stable identifier of the key pair (safe to log and compare).
    fn key_id(&self) -> u64 {
        key_id_of(self.inner)
    }

    /// Verifies `signature` over `data`.
    ///
    /// # Errors
    ///
    /// [`DrvError::SignatureInvalid`] when the signature was produced by a
    /// different key or over different bytes.
    pub fn verify(&self, data: &[u8], signature: &Signature) -> DrvResult<()> {
        if signature.key_id != self.key_id() {
            return Err(DrvError::SignatureInvalid(format!(
                "signed by key {:016x}, trusted key is {:016x}",
                signature.key_id,
                self.key_id()
            )));
        }
        let expect = fnv1a64_parts(&[&self.inner.to_le_bytes(), data]);
        if expect != signature.tag {
            return Err(DrvError::SignatureInvalid(
                "signature does not match content".into(),
            ));
        }
        Ok(())
    }
}

impl Signature {
    /// Serializes the signature (16 bytes).
    pub fn encode(&self) -> Bytes {
        netsim::codec::encode(self)
    }

    /// Deserializes a signature.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation.
    pub fn decode(mut bytes: Bytes) -> Result<Self, CodecError> {
        Self::get(&mut bytes, "signature")
    }
}

/// A bootloader's set of trusted verification keys.
#[derive(Clone, Debug, Default)]
pub struct TrustStore {
    keys: Vec<VerifyingKey>,
}

impl TrustStore {
    /// An empty trust store (rejects everything signed).
    pub fn new() -> Self {
        TrustStore::default()
    }

    /// Adds a trusted key.
    pub fn trust(&mut self, key: VerifyingKey) {
        if !self.keys.contains(&key) {
            self.keys.push(key);
        }
    }

    /// Number of trusted keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no key is trusted.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Verifies `signature` against any trusted key.
    ///
    /// # Errors
    ///
    /// [`DrvError::SignatureInvalid`] when no trusted key accepts it.
    pub fn verify(&self, data: &[u8], signature: &Signature) -> DrvResult<()> {
        for k in &self.keys {
            if k.verify(data, signature).is_ok() {
                return Ok(());
            }
        }
        Err(DrvError::SignatureInvalid(format!(
            "no trusted key accepts signature from key {:016x}",
            signature.key_id
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let sk = SigningKey::from_seed(1);
        let vk = sk.verifying_key();
        let sig = sk.sign(b"driver bytes");
        vk.verify(b"driver bytes", &sig).unwrap();
    }

    #[test]
    fn tampered_content_rejected() {
        let sk = SigningKey::from_seed(1);
        let sig = sk.sign(b"driver bytes");
        let e = sk
            .verifying_key()
            .verify(b"driver bytez", &sig)
            .unwrap_err();
        assert!(matches!(e, DrvError::SignatureInvalid(_)));
    }

    #[test]
    fn wrong_key_rejected() {
        let sk1 = SigningKey::from_seed(1);
        let sk2 = SigningKey::from_seed(2);
        let sig = sk1.sign(b"x");
        assert!(sk2.verifying_key().verify(b"x", &sig).is_err());
    }

    #[test]
    fn signature_encoding_roundtrips() {
        let sig = SigningKey::from_seed(9).sign(b"abc");
        let round = Signature::decode(sig.encode()).unwrap();
        assert_eq!(round, sig);
        assert!(Signature::decode(sig.encode().slice(0..8)).is_err());
    }

    #[test]
    fn trust_store_accepts_any_trusted_key() {
        let sk1 = SigningKey::from_seed(1);
        let sk2 = SigningKey::from_seed(2);
        let mut ts = TrustStore::new();
        assert!(ts.is_empty());
        ts.trust(sk1.verifying_key());
        ts.trust(sk2.verifying_key());
        ts.trust(sk2.verifying_key()); // dedup
        assert_eq!(ts.len(), 2);
        ts.verify(b"x", &sk2.sign(b"x")).unwrap();
        let sk3 = SigningKey::from_seed(3);
        assert!(ts.verify(b"x", &sk3.sign(b"x")).is_err());
    }

    #[test]
    fn key_ids_are_distinct_and_loggable() {
        let a = SigningKey::from_seed(1).verifying_key();
        let b = SigningKey::from_seed(2).verifying_key();
        assert_ne!(a.key_id(), b.key_id());
        assert!(format!("{a:?}").contains("VerifyingKey"));
    }
}
