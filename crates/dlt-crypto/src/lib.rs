//! Cryptographic substrate for the `dlt-compare` workspace.
//!
//! This crate provides every cryptographic primitive the ledger
//! implementations need, built from scratch so the workspace has no
//! external cryptography dependencies:
//!
//! * [`sha256`] — a FIPS 180-4 SHA-256 implementation (streaming and
//!   one-shot), plus the double-SHA-256 variant blockchains use. It runs
//!   on the CPU's SHA extensions where present and on a portable kernel
//!   elsewhere, with identical output.
//! * [`digest`] — the [`Digest`] newtype for 256-bit
//!   hashes, with target/difficulty helpers used by proof-of-work.
//! * [`hexutil`] — minimal hex encoding/decoding for display and tests.
//! * [`codec`] — a compact, deterministic binary encoding
//!   ([`Encode`](codec::Encode) / [`Decode`](codec::Decode)) used for
//!   hashing preimages and for ledger-size accounting.
//! * [`keys`] — key material and [`Address`](keys::Address) derivation.
//! * [`wots`] — Winternitz one-time signatures, the one-time scheme
//!   UTXO outputs are signed with.
//! * [`mss`] — a Merkle signature scheme (a Merkle tree over WOTS leaf
//!   keys) giving a many-time signature suitable for account chains.
//! * [`merkle`] — binary Merkle trees with inclusion proofs.
//! * [`trie`] — a Merkle Patricia Trie with a hash-addressed node store,
//!   structural sharing between versions, and garbage collection; this
//!   models Ethereum's state trie and its "state delta" pruning.
//!
//! # Example
//!
//! ```
//! use dlt_crypto::sha256::sha256;
//! use dlt_crypto::merkle::MerkleTree;
//!
//! let leaves = vec![sha256(b"tx0"), sha256(b"tx1"), sha256(b"tx2")];
//! let tree = MerkleTree::from_leaves(leaves.clone());
//! let proof = tree.prove(1).expect("leaf exists");
//! assert!(proof.verify(&tree.root(), &leaves[1]));
//! ```

// One `unsafe` block is allowed, in `sha256`: the call into the SHA-NI
// kernel after CPU feature detection. Every other crate forbids unsafe
// code, and a dlt-lint test keeps it that way.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod digest;
pub mod hexutil;
pub mod keys;
pub mod merkle;
pub mod mss;
pub mod sha256;
pub mod trie;
pub mod wots;

pub use digest::Digest;
