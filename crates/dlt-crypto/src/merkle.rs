//! Binary Merkle trees with inclusion proofs.
//!
//! Blockchains hash the transactions of a block into a Merkle tree and
//! store only the root in the header (paper §II-A, Fig. 1); light
//! verification and Plasma-style child-chain commitments rely on the
//! inclusion proofs. The tree here uses the Bitcoin convention of
//! duplicating the last node of an odd level.

use crate::codec::{Decode, DecodeError, Encode};
use crate::digest::Digest;
use crate::sha256::sha256_concat;

/// A fully materialised binary Merkle tree over a list of leaf digests.
///
/// Levels are stored bottom-up: `levels[0]` are the leaves, the last
/// level is the single root.
///
/// # Example
///
/// ```
/// use dlt_crypto::merkle::MerkleTree;
/// use dlt_crypto::sha256::sha256;
///
/// let leaves: Vec<_> = (0..5u8).map(|i| sha256(&[i])).collect();
/// let tree = MerkleTree::from_leaves(leaves.clone());
/// for (i, leaf) in leaves.iter().enumerate() {
///     let proof = tree.prove(i).unwrap();
///     assert!(proof.verify(&tree.root(), leaf));
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    levels: Vec<Vec<Digest>>,
    leaf_count: usize,
}

impl MerkleTree {
    /// Builds a tree from leaf digests.
    ///
    /// An empty leaf list produces the conventional "empty root"
    /// [`Digest::ZERO`] (real chains never have empty blocks thanks to
    /// the coinbase transaction, but the case must not panic).
    pub fn from_leaves(leaves: Vec<Digest>) -> Self {
        let leaf_count = leaves.len();
        if leaves.is_empty() {
            return MerkleTree {
                levels: vec![vec![Digest::ZERO]],
                leaf_count,
            };
        }
        let mut levels = vec![leaves];
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let left = &pair[0];
                // Bitcoin convention: duplicate the last node of an odd
                // level.
                let right = pair.get(1).unwrap_or(left);
                next.push(sha256_concat(left, right));
            }
            levels.push(next);
        }
        MerkleTree { levels, leaf_count }
    }

    /// The Merkle root.
    pub fn root(&self) -> Digest {
        self.levels.last().expect("non-empty")[0]
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// The leaves the tree was built from.
    pub fn leaves(&self) -> &[Digest] {
        &self.levels[0]
    }

    /// Produces an inclusion proof for the leaf at `index`, or `None`
    /// if the index is out of range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.leaf_count() {
            return None;
        }
        let mut path = Vec::with_capacity(self.levels.len());
        let mut pos = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_pos = pos ^ 1;
            // Odd level: the sibling of a trailing node is itself.
            let sibling = *level.get(sibling_pos).unwrap_or(&level[pos]);
            path.push(ProofStep {
                sibling,
                sibling_on_left: sibling_pos < pos,
            });
            pos /= 2;
        }
        Some(MerkleProof { index, path })
    }
}

/// One step of a Merkle proof: a sibling digest and its side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProofStep {
    /// The sibling node's digest.
    pub sibling: Digest,
    /// Whether the sibling sits to the left of the running hash.
    pub sibling_on_left: bool,
}

/// An inclusion proof: the authentication path from a leaf to the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub index: usize,
    /// Authentication path, bottom-up.
    pub path: Vec<ProofStep>,
}

impl MerkleProof {
    /// Verifies that `leaf` is included under `root` at this proof's
    /// position.
    pub fn verify(&self, root: &Digest, leaf: &Digest) -> bool {
        *root == self.compute_root(leaf)
    }

    /// Folds the authentication path over `leaf`, returning the implied
    /// root. Exposed so [`mss`](crate::mss) can compare it directly.
    pub fn compute_root(&self, leaf: &Digest) -> Digest {
        let mut acc = *leaf;
        for step in &self.path {
            acc = if step.sibling_on_left {
                sha256_concat(&step.sibling, &acc)
            } else {
                sha256_concat(&acc, &step.sibling)
            };
        }
        acc
    }

    /// Proof size in bytes when encoded (for light-client accounting).
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }
}

impl Encode for ProofStep {
    fn encode(&self, out: &mut Vec<u8>) {
        self.sibling.encode(out);
        self.sibling_on_left.encode(out);
    }
    fn encoded_len(&self) -> usize {
        33
    }
}

impl Decode for ProofStep {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(ProofStep {
            sibling: Digest::decode(input)?,
            sibling_on_left: bool::decode(input)?,
        })
    }
}

impl Encode for MerkleProof {
    fn encode(&self, out: &mut Vec<u8>) {
        self.index.encode(out);
        self.path.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.index.encoded_len() + self.path.encoded_len()
    }
}

impl Decode for MerkleProof {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(MerkleProof {
            index: usize::decode(input)?,
            path: Vec::<ProofStep>::decode(input)?,
        })
    }
}

/// Computes just the Merkle root of a leaf list without materialising
/// the tree (the common case when validating an incoming block).
pub fn merkle_root(leaves: &[Digest]) -> Digest {
    if leaves.is_empty() {
        return Digest::ZERO;
    }
    let mut level = leaves.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            let left = &pair[0];
            let right = pair.get(1).unwrap_or(left);
            next.push(sha256_concat(left, right));
        }
        level = next;
    }
    level[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode_exact;
    use crate::sha256::sha256;

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n).map(|i| sha256(&(i as u64).to_be_bytes())).collect()
    }

    #[test]
    fn single_leaf_root_is_leaf() {
        let l = leaves(1);
        let tree = MerkleTree::from_leaves(l.clone());
        assert_eq!(tree.root(), l[0]);
        assert_eq!(tree.leaf_count(), 1);
    }

    #[test]
    fn empty_tree_has_zero_root() {
        let tree = MerkleTree::from_leaves(vec![]);
        assert_eq!(tree.root(), Digest::ZERO);
        assert_eq!(tree.leaf_count(), 0);
        assert!(tree.prove(0).is_none());
    }

    #[test]
    fn two_leaves_root_is_concat_hash() {
        let l = leaves(2);
        let tree = MerkleTree::from_leaves(l.clone());
        assert_eq!(tree.root(), sha256_concat(&l[0], &l[1]));
    }

    #[test]
    fn odd_level_duplicates_last() {
        let l = leaves(3);
        let tree = MerkleTree::from_leaves(l.clone());
        let left = sha256_concat(&l[0], &l[1]);
        let right = sha256_concat(&l[2], &l[2]);
        assert_eq!(tree.root(), sha256_concat(&left, &right));
    }

    #[test]
    fn proofs_verify_for_all_sizes_and_positions() {
        for n in 1..=17 {
            let l = leaves(n);
            let tree = MerkleTree::from_leaves(l.clone());
            for (i, leaf) in l.iter().enumerate() {
                let proof = tree.prove(i).unwrap();
                assert!(proof.verify(&tree.root(), leaf), "n={n} i={i}");
            }
            assert!(tree.prove(n).is_none());
        }
    }

    #[test]
    fn proof_fails_for_wrong_leaf() {
        let l = leaves(8);
        let tree = MerkleTree::from_leaves(l.clone());
        let proof = tree.prove(3).unwrap();
        assert!(!proof.verify(&tree.root(), &l[4]));
        assert!(!proof.verify(&tree.root(), &sha256(b"not a leaf")));
    }

    #[test]
    fn proof_fails_for_wrong_root() {
        let l = leaves(8);
        let tree = MerkleTree::from_leaves(l.clone());
        let proof = tree.prove(3).unwrap();
        assert!(!proof.verify(&sha256(b"bad root"), &l[3]));
    }

    #[test]
    fn tampering_any_step_breaks_proof() {
        let l = leaves(16);
        let tree = MerkleTree::from_leaves(l.clone());
        let proof = tree.prove(5).unwrap();
        for step in 0..proof.path.len() {
            let mut bad = proof.clone();
            bad.path[step].sibling = sha256(b"tampered");
            assert!(!bad.verify(&tree.root(), &l[5]), "step {step}");
        }
    }

    #[test]
    fn merkle_root_matches_tree() {
        for n in 0..20 {
            let l = leaves(n);
            assert_eq!(merkle_root(&l), MerkleTree::from_leaves(l.clone()).root());
        }
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let l = leaves(7);
        let base = merkle_root(&l);
        for i in 0..l.len() {
            let mut changed = l.clone();
            changed[i] = sha256(b"mutated");
            assert_ne!(merkle_root(&changed), base, "leaf {i}");
        }
    }

    #[test]
    fn proof_codec_round_trip() {
        let l = leaves(9);
        let tree = MerkleTree::from_leaves(l.clone());
        let proof = tree.prove(8).unwrap();
        let back: MerkleProof = decode_exact(&proof.encode_to_vec()).unwrap();
        assert_eq!(back, proof);
        assert!(back.verify(&tree.root(), &l[8]));
    }

    #[test]
    fn proof_length_is_logarithmic() {
        let tree = MerkleTree::from_leaves(leaves(1024));
        let proof = tree.prove(77).unwrap();
        assert_eq!(proof.path.len(), 10);
        assert!(proof.size_bytes() < 11 * 33 + 8);
    }
}
