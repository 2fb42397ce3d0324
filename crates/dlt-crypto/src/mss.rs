//! A Merkle signature scheme (MSS): many-time signatures from one-time
//! keys.
//!
//! An account on a ledger signs many blocks with the same identity; a
//! one-time scheme alone cannot do that. MSS (the ancestor of XMSS)
//! builds a Merkle tree whose leaves are the public keys of `2^h`
//! [WOTS](crate::wots) keypairs. The account's public key is the tree
//! root; signature *i* consists of the WOTS signature under leaf key
//! *i* plus the authentication path proving that leaf key belongs to the
//! root.
//!
//! The keypair tracks which leaves are spent; [`MssKeypair::sign`]
//! returns an error once all `2^h` leaves are used, making accidental
//! one-time-key reuse impossible by construction.

use std::fmt;

use crate::codec::{Decode, DecodeError, Encode};
use crate::digest::Digest;
use crate::merkle::{MerkleProof, MerkleTree};
use crate::sha256::Sha256;
use crate::wots::{self, WotsKeypair, WotsSignature};

/// Default tree height: 2⁶ = 64 signatures per account, enough for the
/// simulated workloads while keeping keygen fast.
pub const DEFAULT_HEIGHT: u32 = 6;

/// Derives the WOTS seed for leaf `index` from the master seed.
fn leaf_seed(seed: &[u8; 32], index: u32) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"mss-leaf");
    h.update(seed);
    h.update(&index.to_be_bytes());
    h.finalize().into_bytes()
}

/// A many-time Merkle signature keypair.
///
/// # Example
///
/// ```
/// use dlt_crypto::mss::MssKeypair;
/// use dlt_crypto::sha256::sha256;
///
/// # fn main() -> Result<(), dlt_crypto::mss::KeyExhausted> {
/// let mut kp = MssKeypair::from_seed([1u8; 32], 3); // 8 signatures
/// let public = kp.public_digest();
/// let sig_a = kp.sign(&sha256(b"block 1"))?;
/// let sig_b = kp.sign(&sha256(b"block 2"))?;
/// assert!(sig_a.verify(&sha256(b"block 1"), &public));
/// assert!(sig_b.verify(&sha256(b"block 2"), &public));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MssKeypair {
    seed: [u8; 32],
    height: u32,
    tree: MerkleTree,
    next_leaf: u32,
}

impl MssKeypair {
    /// Derives a keypair with `2^height` one-time leaf keys from a seed.
    ///
    /// # Panics
    ///
    /// Panics if `height > 16` (keygen cost grows as `2^height`; 65 536
    /// leaf keys is already beyond any simulated account's needs).
    pub fn from_seed(seed: [u8; 32], height: u32) -> Self {
        assert!(height <= 16, "MSS height {height} too large");
        let leaf_count = 1u32 << height;
        let leaves: Vec<Digest> = (0..leaf_count)
            .map(|i| WotsKeypair::from_seed(leaf_seed(&seed, i)).public_digest())
            .collect();
        MssKeypair {
            seed,
            height,
            tree: MerkleTree::from_leaves(leaves),
            next_leaf: 0,
        }
    }

    /// Generates a keypair with the [`DEFAULT_HEIGHT`] from an RNG.
    pub fn generate<R: dlt_testkit::rng::RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Self::from_seed(seed, DEFAULT_HEIGHT)
    }

    /// The account's public key: the Merkle root over leaf public keys.
    pub fn public_digest(&self) -> Digest {
        self.tree.root()
    }

    /// Number of signatures still available.
    pub fn remaining(&self) -> u32 {
        (1u32 << self.height) - self.next_leaf
    }

    /// Total signature capacity (`2^height`).
    pub fn capacity(&self) -> u32 {
        1u32 << self.height
    }

    /// Signs a message digest with the next unused leaf key. The cost is
    /// one WOTS signature: the leaf's public key is already in the tree,
    /// so it is not derived again.
    ///
    /// # Errors
    ///
    /// Returns [`KeyExhausted`] when all `2^height` leaf keys are spent.
    pub fn sign(&mut self, msg: &Digest) -> Result<MssSignature, KeyExhausted> {
        if self.next_leaf >= self.capacity() {
            return Err(KeyExhausted);
        }
        let index = self.next_leaf;
        self.next_leaf += 1;
        let auth_path = self
            .tree
            .prove(index as usize)
            .expect("index < capacity, so the leaf exists");
        Ok(MssSignature {
            leaf_index: index,
            wots_sig: wots::sign_from_seed(&leaf_seed(&self.seed, index), msg),
            auth_path,
        })
    }
}

/// Error returned when an [`MssKeypair`] has no unused leaf keys left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyExhausted;

impl fmt::Display for KeyExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("all one-time leaf keys of this MSS keypair are spent")
    }
}

impl std::error::Error for KeyExhausted {}

/// An MSS signature: a WOTS signature under one leaf key plus the
/// authentication path from that leaf to the account's public root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MssSignature {
    /// Which leaf key signed.
    pub leaf_index: u32,
    /// The one-time signature.
    pub wots_sig: WotsSignature,
    /// Merkle path from the leaf public key to the root.
    pub auth_path: MerkleProof,
}

impl MssSignature {
    /// Verifies against a message digest and the account's public root.
    ///
    /// Recovers the leaf public key from the WOTS signature, then checks
    /// the authentication path connects it to `public_digest`.
    pub fn verify(&self, msg: &Digest, public_digest: &Digest) -> bool {
        if self.auth_path.index != self.leaf_index as usize {
            return false;
        }
        match self.wots_sig.recover_public(msg) {
            Some(leaf_pk) => self.auth_path.compute_root(&leaf_pk) == *public_digest,
            None => false,
        }
    }

    /// Encoded size in bytes (for ledger-size accounting).
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }
}

impl Encode for MssSignature {
    fn encode(&self, out: &mut Vec<u8>) {
        self.leaf_index.encode(out);
        self.wots_sig.encode(out);
        self.auth_path.encode(out);
    }
}

impl Decode for MssSignature {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(MssSignature {
            leaf_index: u32::decode(input)?,
            wots_sig: WotsSignature::decode(input)?,
            auth_path: MerkleProof::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode_exact;
    use crate::sha256::sha256;

    #[test]
    fn sign_verify_round_trip() {
        let mut kp = MssKeypair::from_seed([1u8; 32], 2);
        let msg = sha256(b"message");
        let sig = kp.sign(&msg).unwrap();
        assert!(sig.verify(&msg, &kp.public_digest()));
    }

    #[test]
    fn many_signatures_same_public_key() {
        let mut kp = MssKeypair::from_seed([2u8; 32], 3);
        let public = kp.public_digest();
        for i in 0..8u32 {
            let msg = sha256(&i.to_be_bytes());
            let sig = kp.sign(&msg).unwrap();
            assert_eq!(sig.leaf_index, i);
            assert!(sig.verify(&msg, &public), "sig {i}");
        }
    }

    #[test]
    fn exhaustion_is_an_error() {
        let mut kp = MssKeypair::from_seed([3u8; 32], 1);
        assert_eq!(kp.capacity(), 2);
        kp.sign(&sha256(b"a")).unwrap();
        assert_eq!(kp.remaining(), 1);
        kp.sign(&sha256(b"b")).unwrap();
        assert_eq!(kp.remaining(), 0);
        assert_eq!(kp.sign(&sha256(b"c")), Err(KeyExhausted));
    }

    #[test]
    fn wrong_message_rejected() {
        let mut kp = MssKeypair::from_seed([4u8; 32], 2);
        let sig = kp.sign(&sha256(b"original")).unwrap();
        assert!(!sig.verify(&sha256(b"forged"), &kp.public_digest()));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut kp1 = MssKeypair::from_seed([5u8; 32], 2);
        let kp2 = MssKeypair::from_seed([6u8; 32], 2);
        let msg = sha256(b"message");
        let sig = kp1.sign(&msg).unwrap();
        assert!(!sig.verify(&msg, &kp2.public_digest()));
    }

    #[test]
    fn mismatched_leaf_index_rejected() {
        let mut kp = MssKeypair::from_seed([7u8; 32], 2);
        let msg = sha256(b"message");
        let mut sig = kp.sign(&msg).unwrap();
        sig.leaf_index = 3;
        assert!(!sig.verify(&msg, &kp.public_digest()));
    }

    #[test]
    fn tampered_auth_path_rejected() {
        let mut kp = MssKeypair::from_seed([8u8; 32], 3);
        let msg = sha256(b"message");
        let mut sig = kp.sign(&msg).unwrap();
        sig.auth_path.path[1].sibling = sha256(b"tampered");
        assert!(!sig.verify(&msg, &kp.public_digest()));
    }

    #[test]
    fn codec_round_trip() {
        let mut kp = MssKeypair::from_seed([9u8; 32], 2);
        let msg = sha256(b"encode");
        let sig = kp.sign(&msg).unwrap();
        let back: MssSignature = decode_exact(&sig.encode_to_vec()).unwrap();
        assert_eq!(back, sig);
        assert!(back.verify(&msg, &kp.public_digest()));
    }

    #[test]
    fn deterministic_from_seed() {
        assert_eq!(
            MssKeypair::from_seed([10u8; 32], 2).public_digest(),
            MssKeypair::from_seed([10u8; 32], 2).public_digest()
        );
    }
}
