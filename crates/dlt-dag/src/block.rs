//! Lattice blocks: one transaction per block (paper §II-B).
//!
//! Modelled on Nano's *state blocks*: every block carries the account,
//! the hash of the account's previous block (zero for the first block
//! of a chain), the chosen representative, and the account balance
//! *after* the block. The balance-difference encoding is what lets
//! Nano "keep record of account balances instead of unspent transaction
//! inputs" and prune history (§V-B).
//!
//! Each block also carries a **Hashcash-style proof-of-work** (§III-B:
//! "PoW is used as a spam protection measure … similar to Hashcash"):
//! a nonce such that `H(work-root ‖ nonce)` has a required number of
//! leading zero bits, where the work root is the previous block hash
//! (or the account address for the first block). The work is *not* a
//! lottery — any node can compute it in bounded expected time; it just
//! makes bulk spam expensive.

use dlt_crypto::codec::Encode;
use dlt_crypto::keys::{Address, PublicKey, Signature};
use dlt_crypto::sha256::Sha256;
use dlt_crypto::Digest;

use crate::lattice::{LatticeError, LatticeParams};

/// What a lattice block does to its account chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Deducts funds and targets a destination account (Fig. 3 "S").
    Send {
        /// The account to be credited when the matching receive lands.
        destination: Address,
    },
    /// Claims a pending send (Fig. 3 "R"); the first block of an
    /// account chain is always a receive (Nano's "open" block).
    Receive {
        /// Hash of the send block being claimed.
        source: Digest,
    },
    /// Re-delegates the account's weight to a new representative
    /// (the representative field carries the new choice).
    Change,
}

impl Encode for BlockKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BlockKind::Send { destination } => {
                out.push(0);
                destination.encode(out);
            }
            BlockKind::Receive { source } => {
                out.push(1);
                source.encode(out);
            }
            BlockKind::Change => out.push(2),
        }
    }
}

/// One node of the block-lattice: a single transaction on one
/// account's chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatticeBlock {
    /// The account this block belongs to.
    pub account: Address,
    /// The account's public key (its hash must equal `account`).
    pub account_key: PublicKey,
    /// Hash of the account's previous block; zero for the first.
    pub previous: Digest,
    /// The representative this account delegates its weight to.
    pub representative: Address,
    /// Account balance *after* this block.
    pub balance: u64,
    /// The operation.
    pub kind: BlockKind,
    /// Anti-spam PoW nonce.
    pub work: u64,
    /// The account's signature over [`LatticeBlock::hash`].
    pub signature: Signature,
}

impl LatticeBlock {
    /// The block hash: covers all consensus-relevant fields but not the
    /// work nonce or the signature (as Nano's block hash does), so the
    /// signature can sign the hash and work can be attached afterwards.
    pub fn hash(&self) -> Digest {
        hash_over(
            &self.account,
            &self.account_key,
            &self.previous,
            &self.representative,
            self.balance,
            &self.kind,
        )
    }

    /// Whether this is the first block of its account chain.
    pub fn is_first(&self) -> bool {
        self.previous.is_zero()
    }

    /// The value the anti-spam work must be computed over: the previous
    /// block hash, or the account address for a chain's first block.
    /// Tying work to the chain position stops precomputing a stockpile
    /// of work for one position.
    pub fn work_root(&self) -> Digest {
        if self.is_first() {
            self.account.0
        } else {
            self.previous
        }
    }

    /// The work hash for a given nonce over this block's work root.
    fn work_hash(root: &Digest, nonce: u64) -> Digest {
        let mut h = Sha256::new();
        h.update(b"lattice-work");
        h.update(root.as_bytes());
        h.update(&nonce.to_be_bytes());
        h.finalize()
    }

    /// Whether the attached work meets `difficulty_bits` leading zeros.
    pub fn work_valid(&self, difficulty_bits: u32) -> bool {
        Self::work_hash(&self.work_root(), self.work).leading_zero_bits() >= difficulty_bits
    }

    /// Computes valid anti-spam work for a work root by brute force
    /// (expected `2^difficulty_bits` attempts).
    pub fn compute_work(root: &Digest, difficulty_bits: u32) -> u64 {
        let mut nonce = 0u64;
        loop {
            if Self::work_hash(root, nonce).leading_zero_bits() >= difficulty_bits {
                return nonce;
            }
            nonce += 1;
        }
    }

    /// Number of attempts `compute_work` used for a nonce (the energy
    /// accounting of experiment `e15`): nonces are tried from zero, so
    /// the nonce value itself is the attempt count minus one.
    pub fn work_attempts(&self) -> u64 {
        self.work + 1
    }

    /// Serialized size in bytes (ledger-size accounting, §V-B).
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }

    /// The checks that need no ledger state, in order: the key hashes
    /// to the account, the work meets the difficulty and the signature
    /// signs `hash`, this block's [`hash`](LatticeBlock::hash). Work
    /// and signature are checked as `params` says.
    /// [`Lattice::process`](crate::lattice::Lattice::process) runs
    /// them, and a node runs them before it relays a block.
    pub(crate) fn check_stateless(
        &self,
        hash: &Digest,
        params: &LatticeParams,
    ) -> Result<(), LatticeError> {
        if self.account_key.address() != self.account {
            return Err(LatticeError::BadAccountKey);
        }
        if params.verify_work && !self.work_valid(params.work_difficulty_bits) {
            return Err(LatticeError::BadWork);
        }
        if params.verify_signatures && !self.signature.verify(hash, &self.account_key) {
            return Err(LatticeError::BadSignature);
        }
        Ok(())
    }
}

/// Computes the block hash from the fields it covers (used both by
/// [`LatticeBlock::hash`] and by account holders, which sign the hash
/// before the block exists).
pub(crate) fn hash_over(
    account: &Address,
    account_key: &PublicKey,
    previous: &Digest,
    representative: &Address,
    balance: u64,
    kind: &BlockKind,
) -> Digest {
    let mut h = Sha256::new();
    h.update(b"lattice-block");
    let mut buf = Vec::new();
    account.encode(&mut buf);
    account_key.encode(&mut buf);
    previous.encode(&mut buf);
    representative.encode(&mut buf);
    balance.encode(&mut buf);
    kind.encode(&mut buf);
    h.update(&buf);
    h.finalize()
}

impl Encode for LatticeBlock {
    fn encode(&self, out: &mut Vec<u8>) {
        self.account.encode(out);
        self.account_key.encode(out);
        self.previous.encode(out);
        self.representative.encode(out);
        self.balance.encode(out);
        self.kind.encode(out);
        self.work.encode(out);
        self.signature.encode(out);
    }
}

/// This block with the last part of its WOTS signature flipped in the
/// encoded bytes: the same hash, so the same signed message, and a
/// freshly decoded signature that does not verify.
#[cfg(test)]
pub(crate) fn with_forged_signature(mut block: LatticeBlock) -> LatticeBlock {
    let Signature::Mss(sig) = &mut block.signature else {
        panic!("account blocks are MSS-signed");
    };
    let mut bytes = sig.wots_sig.encode_to_vec();
    let last_part = bytes.len() - 32;
    bytes[last_part] ^= 1;
    sig.wots_sig = dlt_crypto::codec::decode_exact(&bytes).expect("same length");
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_crypto::keys::Keypair;
    use dlt_crypto::sha256::sha256;

    fn sample_block(previous: Digest) -> LatticeBlock {
        let mut key = Keypair::mss_from_seed([1u8; 32], 2);
        let (account, account_key) = (key.address(), key.public_key());
        let representative = Address::from_label("rep");
        let kind = BlockKind::Send {
            destination: Address::from_label("dest"),
        };
        let hash = hash_over(
            &account,
            &account_key,
            &previous,
            &representative,
            100,
            &kind,
        );
        LatticeBlock {
            account,
            account_key,
            previous,
            representative,
            balance: 100,
            kind,
            work: 0,
            signature: key.sign(&hash).unwrap(),
        }
    }

    #[test]
    fn hash_excludes_work_and_signature() {
        let block = sample_block(sha256(b"prev"));
        let h1 = block.hash();
        assert!(block.signature.verify(&h1, &block.account_key));
        let mut modified = block.clone();
        modified.work = 999;
        assert_eq!(modified.hash(), h1);
        // A different valid signature by the same key (the next leaf,
        // over the same hash) leaves the hash unchanged.
        let mut key = Keypair::mss_from_seed([1u8; 32], 2);
        key.sign(&h1).unwrap();
        let mut resigned = block.clone();
        resigned.signature = key.sign(&h1).unwrap();
        assert_ne!(resigned.signature, block.signature);
        assert!(resigned.signature.verify(&h1, &resigned.account_key));
        assert_eq!(resigned.hash(), h1);
        // But consensus fields change it.
        let mut modified = block;
        modified.balance = 50;
        assert_ne!(modified.hash(), h1);
    }

    #[test]
    fn work_root_depends_on_position() {
        let first = sample_block(Digest::ZERO);
        assert!(first.is_first());
        assert_eq!(first.work_root(), first.account.0);
        let later = sample_block(sha256(b"prev"));
        assert!(!later.is_first());
        assert_eq!(later.work_root(), sha256(b"prev"));
    }

    #[test]
    fn computed_work_validates() {
        let mut block = sample_block(sha256(b"prev"));
        let bits = 8;
        assert!(!block.work_valid(bits) || block.work_attempts() == 1);
        block.work = LatticeBlock::compute_work(&block.work_root(), bits);
        assert!(block.work_valid(bits));
        // Work for one root doesn't transfer to another position.
        let mut moved = block.clone();
        moved.previous = sha256(b"other-prev");
        // Overwhelmingly unlikely to still validate.
        assert!(!moved.work_valid(bits));
    }

    #[test]
    fn work_attempts_scale_with_difficulty() {
        // Expected attempts double per extra bit; check the trend over
        // many roots (noisy, so use medians of small samples).
        let attempts = |bits: u32| -> u64 {
            let mut total = 0;
            for i in 0..20u64 {
                let root = sha256(&i.to_be_bytes());
                total += LatticeBlock::compute_work(&root, bits) + 1;
            }
            total
        };
        let easy = attempts(2);
        let hard = attempts(7);
        assert!(hard > easy, "7-bit work ({hard}) > 2-bit work ({easy})");
    }

    #[test]
    fn codec_round_trip() {
        let mut encodings = std::collections::BTreeSet::new();
        for kind in [
            BlockKind::Send {
                destination: Address::from_label("d"),
            },
            BlockKind::Receive {
                source: sha256(b"send"),
            },
            BlockKind::Change,
        ] {
            let mut block = sample_block(sha256(b"prev"));
            block.kind = kind;
            let bytes = block.encode_to_vec();
            assert_eq!(block.size_bytes(), bytes.len());
            encodings.insert(bytes);
        }
        assert_eq!(encodings.len(), 3, "each kind encodes differently");
    }

    #[test]
    fn encoding_changes_with_any_field() {
        let block = sample_block(sha256(b"prev"));
        let edits: [fn(&mut LatticeBlock); 9] = [
            |b| b.account = Address::from_label("other"),
            |b| b.account_key = PublicKey(Digest::ZERO),
            |b| b.previous = Digest::ZERO,
            |b| b.representative = Address::from_label("other-rep"),
            |b| b.balance += 1,
            |b| {
                b.kind = BlockKind::Send {
                    destination: Address::from_label("other-dest"),
                }
            },
            |b| b.kind = BlockKind::Change,
            |b| b.work += 1,
            |b| {
                b.signature = Keypair::wots_from_seed([9u8; 32])
                    .sign(&Digest::ZERO)
                    .unwrap()
            },
        ];
        for edit in edits {
            let mut changed = block.clone();
            edit(&mut changed);
            assert_ne!(changed.encode_to_vec(), block.encode_to_vec());
        }
    }

    #[test]
    fn block_size_is_a_few_kib() {
        // One MSS signature dominates: the paper's Nano ledger carries
        // one signature per block too (ed25519 is smaller; the *shape*
        // of per-block cost is what matters for §V comparisons).
        let block = sample_block(sha256(b"prev"));
        let size = block.size_bytes();
        assert!(size > 1_000 && size < 10_000, "size {size}");
    }
}
