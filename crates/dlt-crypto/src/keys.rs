//! Key material, signatures and addresses shared by all ledgers.
//!
//! The ledgers never care *which* hash-based scheme produced a
//! signature; they verify a [`Signature`] against a [`PublicKey`] and
//! derive an [`Address`] from a public key. This module provides that
//! uniform surface:
//!
//! * [`Keypair`] — a signing identity. UTXO outputs use one-time
//!   [`Keypair::wots`] keys (a fresh key per output, matching
//!   address-hygiene practice in Bitcoin); account chains use many-time
//!   [`Keypair::mss`] keys.
//! * [`PublicKey`] — the compact commitment a verifier checks against.
//! * [`Address`] — `H(public key)`, the pay-to-public-key-hash rule.
//! * [`Signature`] — scheme-tagged signature with unified `verify`.

use std::fmt;

use crate::codec::{Decode, DecodeError, Encode};
use crate::digest::Digest;
use crate::mss::{KeyExhausted, MssKeypair, MssSignature};
use crate::sha256::{sha256, Sha256};
use crate::wots::{WotsKeypair, WotsSignature};

/// A compact public-key commitment (32 bytes regardless of scheme).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PublicKey(pub Digest);

impl PublicKey {
    /// Derives the pay-to-public-key-hash address for this key.
    pub fn address(&self) -> Address {
        let mut h = Sha256::new();
        h.update(b"address");
        h.update(self.0.as_bytes());
        Address(h.finalize())
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pk:{}", self.0.short())
    }
}

impl Encode for PublicKey {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn encoded_len(&self) -> usize {
        32
    }
}

impl Decode for PublicKey {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(PublicKey(Digest::decode(input)?))
    }
}

/// A ledger address: the hash of a public key.
///
/// Addresses identify UTXO output owners, Ethereum-style accounts and
/// Nano-style account chains alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(pub Digest);

impl Address {
    /// The all-zero address, used for burn/coinbase sentinels.
    pub const ZERO: Address = Address(Digest::ZERO);

    /// A short human-readable form for logs and example output.
    pub fn short(&self) -> String {
        self.0.short()
    }

    /// Deterministically derives a labelled test address. Only for
    /// examples and tests that don't need a real keypair behind the
    /// address.
    pub fn from_label(label: &str) -> Address {
        Address(sha256(label.as_bytes()))
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "addr:{}", self.0.short())
    }
}

impl Encode for Address {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn encoded_len(&self) -> usize {
        32
    }
}

impl Decode for Address {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Address(Digest::decode(input)?))
    }
}

/// A scheme-tagged signature. Codec tag 1 is WOTS and tag 2 is MSS; any
/// other tag, 0 included, is rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Signature {
    /// Winternitz one-time signature (compact one-time).
    Wots(WotsSignature),
    /// Merkle many-time signature (account chains).
    Mss(MssSignature),
}

impl Signature {
    /// Verifies the signature over `msg` against `public`.
    pub fn verify(&self, msg: &Digest, public: &PublicKey) -> bool {
        match self {
            Signature::Wots(sig) => sig.verify(msg, &public.0),
            Signature::Mss(sig) => sig.verify(msg, &public.0),
        }
    }

    /// Encoded size in bytes (ledger-size accounting).
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }
}

impl Encode for Signature {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Signature::Wots(sig) => {
                out.push(1);
                sig.encode(out);
            }
            Signature::Mss(sig) => {
                out.push(2);
                sig.encode(out);
            }
        }
    }
}

impl Decode for Signature {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(input)? {
            1 => Ok(Signature::Wots(WotsSignature::decode(input)?)),
            2 => Ok(Signature::Mss(MssSignature::decode(input)?)),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// A signing identity wrapping one of the hash-based schemes.
///
/// # Example
///
/// ```
/// use dlt_crypto::keys::Keypair;
/// use dlt_crypto::sha256::sha256;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut account = Keypair::mss_from_seed([1u8; 32], 3);
/// let msg = sha256(b"send 10");
/// let sig = account.sign(&msg)?;
/// assert!(sig.verify(&msg, &account.public_key()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub enum Keypair {
    /// One-time WOTS key.
    Wots(WotsKeypair),
    /// Many-time MSS key.
    Mss(MssKeypair),
}

impl Keypair {
    /// Generates a fresh one-time WOTS keypair.
    pub fn wots<R: dlt_testkit::rng::RngCore + ?Sized>(rng: &mut R) -> Self {
        Keypair::Wots(WotsKeypair::generate(rng))
    }

    /// Generates a fresh many-time MSS keypair.
    pub fn mss<R: dlt_testkit::rng::RngCore + ?Sized>(rng: &mut R) -> Self {
        Keypair::Mss(MssKeypair::generate(rng))
    }

    /// Derives a many-time MSS keypair from a seed with `2^height`
    /// signatures of capacity.
    pub fn mss_from_seed(seed: [u8; 32], height: u32) -> Self {
        Keypair::Mss(MssKeypair::from_seed(seed, height))
    }

    /// Derives a one-time WOTS keypair from a seed.
    pub fn wots_from_seed(seed: [u8; 32]) -> Self {
        Keypair::Wots(WotsKeypair::from_seed(seed))
    }

    /// The public key verifiers check signatures against.
    pub fn public_key(&self) -> PublicKey {
        let digest = match self {
            Keypair::Wots(kp) => kp.public_digest(),
            Keypair::Mss(kp) => kp.public_digest(),
        };
        PublicKey(digest)
    }

    /// This identity's ledger address.
    pub fn address(&self) -> Address {
        self.public_key().address()
    }

    /// Signs a message digest.
    ///
    /// # Errors
    ///
    /// Returns [`KeyExhausted`] when an MSS key has spent all leaf keys.
    /// One-time keys never fail here, but signing twice with them is a
    /// caller bug (the schemes become forgeable); ledgers avoid it by
    /// construction.
    pub fn sign(&mut self, msg: &Digest) -> Result<Signature, KeyExhausted> {
        match self {
            Keypair::Wots(kp) => Ok(Signature::Wots(kp.sign(msg))),
            Keypair::Mss(kp) => Ok(Signature::Mss(kp.sign(msg)?)),
        }
    }

    /// Remaining signature capacity (`None` = one-time key, unsigned
    /// state unknown to the keypair itself).
    pub fn remaining(&self) -> Option<u32> {
        match self {
            Keypair::Mss(kp) => Some(kp.remaining()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode_exact;
    use dlt_testkit::rng::Xoshiro256StarStar;

    #[test]
    fn address_derivation_is_deterministic() {
        let kp = Keypair::wots_from_seed([1u8; 32]);
        assert_eq!(kp.address(), kp.public_key().address());
        assert_eq!(kp.address(), Keypair::wots_from_seed([1u8; 32]).address());
    }

    #[test]
    fn different_keys_different_addresses() {
        let a = Keypair::wots_from_seed([1u8; 32]);
        let b = Keypair::wots_from_seed([2u8; 32]);
        assert_ne!(a.address(), b.address());
    }

    #[test]
    fn all_schemes_sign_and_verify() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let msg = sha256(b"unified message");
        for mut kp in [
            Keypair::wots(&mut rng),
            Keypair::mss_from_seed([3u8; 32], 2),
        ] {
            let public = kp.public_key();
            let sig = kp.sign(&msg).unwrap();
            assert!(sig.verify(&msg, &public));
            assert!(!sig.verify(&sha256(b"other"), &public));
        }
    }

    #[test]
    fn signature_codec_round_trip_all_schemes() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let msg = sha256(b"codec");
        for mut kp in [
            Keypair::wots(&mut rng),
            Keypair::mss_from_seed([4u8; 32], 2),
        ] {
            let public = kp.public_key();
            let sig = kp.sign(&msg).unwrap();
            let back: Signature = decode_exact(&sig.encode_to_vec()).unwrap();
            assert_eq!(back, sig);
            assert!(back.verify(&msg, &public));
        }
    }

    #[test]
    fn signature_decode_rejects_bad_tag() {
        assert!(matches!(
            decode_exact::<Signature>(&[9]),
            Err(DecodeError::InvalidTag(9))
        ));
    }

    #[test]
    fn signature_decode_rejects_lamport_tag() {
        assert!(matches!(
            decode_exact::<Signature>(&[0]),
            Err(DecodeError::InvalidTag(0))
        ));
    }

    #[test]
    fn cross_scheme_verification_fails() {
        let mut wots = Keypair::wots_from_seed([5u8; 32]);
        let mut mss = Keypair::mss_from_seed([5u8; 32], 2);
        let msg = sha256(b"cross");
        let wots_sig = wots.sign(&msg).unwrap();
        let mss_sig = mss.sign(&msg).unwrap();
        assert!(!wots_sig.verify(&msg, &mss.public_key()));
        assert!(!mss_sig.verify(&msg, &wots.public_key()));
    }

    #[test]
    fn mss_remaining_reported() {
        let mut kp = Keypair::mss_from_seed([6u8; 32], 1);
        assert_eq!(kp.remaining(), Some(2));
        kp.sign(&sha256(b"x")).unwrap();
        assert_eq!(kp.remaining(), Some(1));
        let one_time = Keypair::wots_from_seed([6u8; 32]);
        assert_eq!(one_time.remaining(), None);
    }

    #[test]
    fn address_from_label_stable() {
        assert_eq!(Address::from_label("alice"), Address::from_label("alice"));
        assert_ne!(Address::from_label("alice"), Address::from_label("bob"));
    }

    #[test]
    fn address_codec_round_trip() {
        let addr = Address::from_label("codec");
        let back: Address = decode_exact(&addr.encode_to_vec()).unwrap();
        assert_eq!(back, addr);
    }

    #[test]
    fn display_forms_are_short() {
        let kp = Keypair::wots_from_seed([7u8; 32]);
        assert!(kp.public_key().to_string().starts_with("pk:"));
        assert!(kp.address().to_string().starts_with("addr:"));
    }
}
