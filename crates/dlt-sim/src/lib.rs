//! Discrete-event network simulator substrate for `dlt-compare`.
//!
//! The paper's comparisons (fork rate, confirmation latency, throughput)
//! all depend on *network behaviour* — message delay, gossip fan-out,
//! partitions — rather than on real sockets. This crate provides a
//! deterministic discrete-event simulation engine the ledger crates run
//! on:
//!
//! * [`time`] — simulated time ([`SimTime`],
//!   microsecond resolution) and durations.
//! * [`rng`] — a seeded deterministic RNG plus the samplers the
//!   experiments need (exponential inter-block times, log-normal
//!   latencies).
//! * [`latency`] — pluggable link-latency models.
//! * [`network`] — the message fabric: full-mesh or explicit topology,
//!   and the latency of each delivery.
//! * [`engine`] — the event loop: nodes implement
//!   [`SimNode`], exchange messages through a
//!   [`Context`], and set timers.
//! * [`metrics`] — counters and histograms with percentile queries, the
//!   raw material of every experiment table. Hot paths use pre-interned
//!   [`metrics::CounterId`]/[`metrics::SeriesId`] handles.
//! * [`trace`] — the [`trace::TraceLog`] the engine records into at
//!   every send/schedule/dispatch/drop point, for tests and the
//!   `DLT_TRACE` experiment mode.
//! * [`fault`] — the [`fault::Interceptor`] hook the engine consults on
//!   every send, and the one way faults enter a run: seed-driven fault
//!   policies (drop, delay, duplicate, reorder, partition, Byzantine
//!   lag) and deterministic replay of a recorded [`trace::TraceLog`].
//! * [`shard`] — the parallel shard executor: K independent shard
//!   simulations on worker threads between epoch barriers, with a
//!   deterministic cross-shard exchange at each barrier. The only
//!   sanctioned use of `std::thread` in the simulator (lint rule D6).
//!
//! Determinism: given the same seed and the same sequence of API calls,
//! a simulation replays identically (events are ordered by time with a
//! monotone sequence number as the tiebreak).
//!
//! # Example
//!
//! ```
//! use dlt_sim::engine::{Context, Payload, SimNode, Simulation};
//! use dlt_sim::latency::LatencyModel;
//! use dlt_sim::network::NodeId;
//! use dlt_sim::time::SimTime;
//!
//! struct Echo;
//! impl SimNode<String> for Echo {
//!     fn on_message(&mut self, ctx: &mut Context<'_, String>, from: NodeId, msg: Payload<String>) {
//!         if *msg == "ping" {
//!             ctx.send(from, "pong".to_string());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(42, LatencyModel::Fixed(SimTime::from_millis(10)));
//! let a = sim.add_node(Box::new(Echo));
//! let b = sim.add_node(Box::new(Echo));
//! sim.send_external(a, b, "ping".to_string());
//! sim.run_until_idle(SimTime::from_secs(1));
//! assert!(sim.now() >= SimTime::from_millis(20)); // ping + pong
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod fault;
pub mod latency;
pub mod metrics;
pub mod network;
pub mod rng;
pub mod shard;
pub mod time;
pub mod trace;

pub use engine::{Context, Payload, SimNode, Simulation};
pub use fault::{FaultInterceptor, Interceptor, ReplayInterceptor, ReplayScript};
pub use network::NodeId;
pub use shard::{CrossMsg, ExecutorOutcome, ShardExecutor, ShardReport, ShardWorker};
pub use time::SimTime;
