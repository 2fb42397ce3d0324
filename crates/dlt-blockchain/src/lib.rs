//! The blockchain paradigm of `dlt-compare`.
//!
//! This crate implements the paper's two blockchain reference designs
//! from scratch (paper §II-A):
//!
//! * a **Bitcoin-like** chain — UTXO transactions, 1 MB blocks, a
//!   10-minute proof-of-work target, fee-priority mempool, longest-chain
//!   (most-work) fork choice, six-confirmation convention, and prune
//!   mode ([`bitcoin`], [`utxo`]);
//! * an **Ethereum-like** chain — account/nonce model, per-block state
//!   roots in a Merkle Patricia Trie, gas-limited dynamic block sizes,
//!   15-second blocks, receipts, state-delta pruning and fast sync
//!   ([`ethereum`], [`account`]).
//!
//! Consensus back-ends (paper §III-A):
//!
//! * [`pow`] — proof-of-work, both as *real* partial hash inversion and
//!   as the statistically exact sampled (exponential) process;
//! * [`difficulty`] — dynamic difficulty retargeting;
//! * [`pos`] — proof-of-stake: stake-weighted proposer election,
//!   slashing of equivocators, and a Casper-FFG-style checkpoint
//!   finality gadget (paper §IV-A).
//!
//! Chain maintenance:
//!
//! * [`block`] — headers, blocks, identifiers, and the shared block
//!   that gossip and every store hold as one allocation;
//! * [`chain`] — the block store: fork tracking, most-work tip
//!   selection, reorg computation, orphan pool (paper §IV-A, Fig. 4);
//! * [`mempool`] — pending transactions ordered by fee rate;
//! * [`node`] — a miner/relay node runnable on the
//!   [`dlt-sim`](dlt_sim) discrete-event network;
//! * [`prune`] — ledger-size accounting and pruning (paper §V-A).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod account;
pub mod bitcoin;
pub mod block;
pub mod chain;
pub mod difficulty;
pub mod ethereum;
pub mod mempool;
pub mod node;
pub mod pos;
pub mod pos_chain;
pub mod pow;
pub mod prune;
pub mod spv;
pub mod utxo;

pub use block::{Block, BlockHeader};
pub use chain::{ChainStore, InsertOutcome};
