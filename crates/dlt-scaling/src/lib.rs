//! Scalability extensions of `dlt-compare` (paper §VI-A).
//!
//! The paper surveys four blockchain scaling avenues: bigger blocks
//! (swept directly on the chain crates by experiment `e11`), off-chain
//! **channels** ("the Raiden Network on top of Ethereum or the
//! Lightning Network on top of Bitcoin"), hierarchical chains, and
//! **sharding**. This crate implements those that need machinery of
//! their own (plus the Plasma nested chain):
//!
//! * [`channels`] — bidirectional payment channels with signed balance
//!   updates, cooperative and forced closes, a challenge window, and
//!   cheat punishment; plus a channel-network graph with capacity-aware
//!   multi-hop routing.
//! * [`plasma`] — a Plasma-style nested chain: an operator commits
//!   only Merkle roots to the root chain, with fraud proofs slashing a
//!   Byzantine operator's bond.
//! * [`sharding`] — the analytic K-shard throughput ceiling
//!   `K·C / (1 + f)` for two-phase cross-shard traffic (debit in the
//!   source shard, credit in the destination shard). The measured
//!   counterpart is `dlt-bench::shardnet`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channels;
pub mod plasma;
pub mod sharding;

pub use channels::{Channel, ChannelError, ChannelNetwork};
pub use sharding::ShardingParams;
