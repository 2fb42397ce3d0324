//! Std-only test substrate for the dlt-compare workspace.
//!
//! The workspace builds and tests with **zero external dependencies**
//! (`cargo build --offline` on a machine that has never seen a registry
//! works). This crate provides the pieces that external crates used to
//! supply:
//!
//! * [`rng`] — a deterministic, seedable PRNG (SplitMix64-seeded
//!   xoshiro256**) behind the workspace-wide [`rng::RngCore`] trait,
//!   replacing the `rand` crate.
//! * [`mod@prop`] — a miniature property-testing harness with case
//!   generation and choice-sequence shrinking, replacing `proptest`.
//! * [`json`] — a minimal JSON document model (writer + strict parser)
//!   used by the experiment binaries and `perfbench`.
//! * [`det`] — run-twice determinism assertions for the engine's
//!   dispatch-hash sanitizer.
//!
//! Performance is measured end to end by `perfbench/`, not here.
//! Everything here is deterministic given a seed; no wall-clock or OS
//! entropy feeds any generated value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod det;
pub mod json;
pub mod prop;
pub mod rng;

pub use rng::{RngCore, SplitMix64, Xoshiro256StarStar};
