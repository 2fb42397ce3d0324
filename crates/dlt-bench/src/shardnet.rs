//! Measured sharding workload for e13 (paper §VI-A).
//!
//! The *measured* side of the e13 table: each shard is a real
//! [`Simulation`] — one validator plus gossip replicas — driven through
//! the parallel shard executor ([`dlt_sim::shard`]). The validator is
//! an M/D/1 queue with capacity `C` tx/s; a fraction `f` of submitted
//! transactions are cross-shard two-phase transfers (debit at the home
//! shard, credit at the destination), and inbound credits are
//! prioritised over fresh submissions, so the measured column can be
//! read against the `K·C/(1+f)` ceiling of
//! `dlt-scaling::sharding::ShardingParams::theoretical_tps`.
//!
//! Cross-shard debits travel between shards only at epoch barriers
//! (sorted by `(sent_at, seq, src)`, delivered at `epoch_end +
//! cross_latency`), which is what makes the parallel run byte-identical
//! to the serial one — see DESIGN.md §3d.

use dlt_sim::latency::LatencyModel;
use dlt_sim::metrics::{CounterId, Metrics};
use dlt_sim::rng::SimRng;
use dlt_sim::shard::{mix, CrossMsg, ShardExecutor, ShardReport, ShardWorker};
use dlt_sim::{Context, NodeId, Payload, SimNode, SimTime, Simulation};

/// Messages inside one shard's simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardMsg {
    /// A client transaction arriving at the validator. `cross_to` names
    /// the destination shard of a cross-shard transfer (`None` = local).
    Submit {
        /// Destination shard for the credit phase, if cross-shard.
        cross_to: Option<u32>,
    },
    /// The credit phase of a cross-shard transfer, injected at an epoch
    /// barrier by the executor.
    Credit,
    /// Post-commit gossip from the validator to its replicas.
    Applied,
}

/// Per-message fingerprint for the det-sanitizer dispatch hash.
pub fn digest_msg(msg: &ShardMsg) -> u64 {
    match msg {
        ShardMsg::Submit { cross_to: None } => 1,
        ShardMsg::Submit {
            cross_to: Some(dst),
        } => mix(2, u64::from(*dst)),
        ShardMsg::Credit => 3,
        ShardMsg::Applied => 4,
    }
}

/// One (K, f) sweep cell of the e13 workload.
#[derive(Debug, Clone, Copy)]
pub struct ShardNetParams {
    /// Shard count K.
    pub shards: usize,
    /// Validator service capacity C, in tx/s.
    pub capacity: f64,
    /// Fraction of submissions that are cross-shard transfers.
    pub cross_fraction: f64,
    /// Offered client load per shard, in tx/s (set above `capacity` to
    /// measure the saturated ceiling).
    pub offered_per_shard: f64,
    /// Measured window, in simulated seconds.
    pub duration: f64,
    /// Barrier spacing of the shard executor.
    pub epoch_len: SimTime,
    /// Fixed latency a cross-shard credit pays past its barrier.
    pub cross_latency: SimTime,
    /// Gossip replicas per shard (the validator broadcasts `Applied`
    /// to them after each commit).
    pub replicas: usize,
    /// Cell seed; per-shard simulation seeds are derived from it.
    pub seed: u64,
}

/// Timer id for "current service slot completes".
const TIMER_SERVICE_DONE: u64 = 1;

/// A queued unit of validator work.
#[derive(Debug, Clone, Copy)]
enum Job {
    Local,
    CrossDebit { dst: u32 },
    Credit,
}

/// Pre-interned metric handles, registered once in `on_start` (the
/// same pattern as `dlt-blockchain`'s `MinerMetrics`).
#[derive(Debug, Clone, Copy)]
struct ValidatorMetrics {
    completed: CounterId,
    completed_cross: CounterId,
    debits: CounterId,
}

/// The shard's single block producer: an M/D/1 queue over [`Job`]s,
/// credits first.
struct Validator {
    service: SimTime,
    busy: bool,
    current: Option<Job>,
    credits: u64,
    submits: std::collections::VecDeque<Job>,
    /// Completed cross-shard debits, drained by the worker at each
    /// barrier as `(completion_time, dst_shard)`.
    outbox: Vec<(SimTime, u32)>,
    metrics: Option<ValidatorMetrics>,
    queue_peak: u64,
}

impl Validator {
    fn new(service: SimTime) -> Self {
        Validator {
            service,
            busy: false,
            current: None,
            credits: 0,
            submits: std::collections::VecDeque::new(),
            outbox: Vec::new(),
            metrics: None,
            queue_peak: 0,
        }
    }

    fn handles(&self) -> ValidatorMetrics {
        self.metrics.expect("metric handles registered in on_start")
    }

    fn start_next(&mut self, ctx: &mut Context<'_, ShardMsg>) {
        debug_assert!(!self.busy);
        let job = if self.credits > 0 {
            self.credits -= 1;
            Some(Job::Credit)
        } else {
            self.submits.pop_front()
        };
        if let Some(job) = job {
            self.busy = true;
            self.current = Some(job);
            ctx.set_timer(self.service, TIMER_SERVICE_DONE);
        }
    }

    fn enqueue(&mut self, ctx: &mut Context<'_, ShardMsg>, job: Job) {
        match job {
            Job::Credit => self.credits += 1,
            other => self.submits.push_back(other),
        }
        self.queue_peak = self
            .queue_peak
            .max(self.credits + self.submits.len() as u64);
        if !self.busy {
            self.start_next(ctx);
        }
    }
}

impl SimNode<ShardMsg> for Validator {
    fn on_start(&mut self, ctx: &mut Context<'_, ShardMsg>) {
        let metrics = ctx.metrics();
        self.metrics = Some(ValidatorMetrics {
            completed: metrics.counter("tx.completed"),
            completed_cross: metrics.counter("tx.completed_cross"),
            debits: metrics.counter("tx.cross_debits"),
        });
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, ShardMsg>,
        _from: NodeId,
        msg: Payload<ShardMsg>,
    ) {
        match *msg {
            ShardMsg::Submit { cross_to: None } => self.enqueue(ctx, Job::Local),
            ShardMsg::Submit {
                cross_to: Some(dst),
            } => self.enqueue(ctx, Job::CrossDebit { dst }),
            ShardMsg::Credit => self.enqueue(ctx, Job::Credit),
            // Replica gossip bounced back is not validator work.
            ShardMsg::Applied => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ShardMsg>, timer: u64) {
        debug_assert_eq!(timer, TIMER_SERVICE_DONE);
        let job = self.current.take().expect("timer without a current job");
        let m = self.handles();
        self.busy = false;
        match job {
            Job::Local => ctx.metrics().inc(m.completed),
            Job::Credit => {
                // A cross-shard transfer completes when its credit
                // applies at the destination.
                ctx.metrics().inc(m.completed);
                ctx.metrics().inc(m.completed_cross);
            }
            Job::CrossDebit { dst } => {
                ctx.metrics().inc(m.debits);
                let now = ctx.now();
                self.outbox.push((now, dst));
            }
        }
        // Post-commit gossip: every completed service slot is announced
        // to the replicas, exercising the network/latency path.
        ctx.broadcast(ShardMsg::Applied);
        self.start_next(ctx);
    }
}

/// A passive gossip replica: counts the commits it hears about.
struct Replica {
    applied: Option<CounterId>,
}

impl SimNode<ShardMsg> for Replica {
    fn on_start(&mut self, ctx: &mut Context<'_, ShardMsg>) {
        self.applied = Some(ctx.metrics().counter("replica.applied"));
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, ShardMsg>,
        _from: NodeId,
        msg: Payload<ShardMsg>,
    ) {
        if *msg == ShardMsg::Applied {
            let applied = self.applied.expect("registered in on_start");
            ctx.metrics().inc(applied);
        }
    }
}

/// Heterogeneous node set without boxing.
enum Node {
    Validator(Validator),
    Replica(Replica),
}

impl SimNode<ShardMsg> for Node {
    fn on_start(&mut self, ctx: &mut Context<'_, ShardMsg>) {
        match self {
            Node::Validator(v) => v.on_start(ctx),
            Node::Replica(r) => r.on_start(ctx),
        }
    }
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, ShardMsg>,
        from: NodeId,
        msg: Payload<ShardMsg>,
    ) {
        match self {
            Node::Validator(v) => v.on_message(ctx, from, msg),
            Node::Replica(r) => r.on_message(ctx, from, msg),
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, ShardMsg>, timer: u64) {
        match self {
            Node::Validator(v) => v.on_timer(ctx, timer),
            Node::Replica(r) => r.on_timer(ctx, timer),
        }
    }
}

/// One shard's ledger simulation, adapted to the executor's
/// epoch/cross-shard protocol.
pub struct ShardLedgerWorker {
    sim: Simulation<ShardMsg, Node>,
    /// Monotone per-shard sequence for outbound cross messages (never
    /// reset between epochs — the exchange key depends on it).
    next_seq: u64,
    shard: usize,
}

const VALIDATOR: NodeId = NodeId(0);

impl ShardLedgerWorker {
    /// Builds shard `shard` of the cell: validator + replicas on a LAN
    /// gossip fabric, with the full client arrival schedule for
    /// `params.duration` pre-loaded into the event queue.
    pub fn new(params: &ShardNetParams, shard: usize) -> Self {
        assert!(params.capacity > 0.0 && params.offered_per_shard > 0.0);
        let mut sim = Simulation::with_network(
            mix(params.seed, shard as u64),
            dlt_sim::network::Network::new(LatencyModel::lan()),
        );
        #[cfg(feature = "det-sanitizer")]
        sim.set_msg_digester(digest_msg);
        let service = SimTime::from_secs_f64(1.0 / params.capacity);
        sim.add_node(Node::Validator(Validator::new(service)));
        for _ in 0..params.replicas {
            sim.add_node(Node::Replica(Replica { applied: None }));
        }

        // Pre-schedule the Poisson client arrivals from a dedicated
        // workload RNG (the sim's own RNG keeps sampling gossip
        // latencies; separating them keeps arrival times independent of
        // gossip traffic).
        let mut workload = SimRng::new(mix(mix(params.seed, shard as u64), 0x5eed));
        let mean_gap = 1.0 / params.offered_per_shard;
        let mut t = 0.0f64;
        loop {
            t += workload.exponential(mean_gap);
            if t >= params.duration {
                break;
            }
            let cross_to = if params.shards > 1 && workload.chance(params.cross_fraction) {
                // Uniform over the *other* shards.
                let mut dst = workload.below(params.shards as u64 - 1) as usize;
                if dst >= shard {
                    dst += 1;
                }
                Some(dst as u32)
            } else {
                None
            };
            sim.deliver_at(
                SimTime::from_secs_f64(t),
                VALIDATOR,
                VALIDATOR,
                ShardMsg::Submit { cross_to },
            );
        }

        ShardLedgerWorker {
            sim,
            next_seq: 0,
            shard,
        }
    }
}

impl ShardWorker for ShardLedgerWorker {
    type Cross = ();

    fn run_epoch(&mut self, _epoch: u64, epoch_end: SimTime) -> Vec<CrossMsg<()>> {
        self.sim.run_until(epoch_end);
        let Node::Validator(validator) = self.sim.node_mut(VALIDATOR) else {
            unreachable!("node 0 is always the validator");
        };
        let shard = self.shard;
        let drained: Vec<(SimTime, u32)> = validator.outbox.drain(..).collect();
        drained
            .into_iter()
            .map(|(sent_at, dst)| {
                let seq = self.next_seq;
                self.next_seq += 1;
                CrossMsg {
                    sent_at,
                    seq,
                    src: shard,
                    dst: dst as usize,
                    payload: (),
                }
            })
            .collect()
    }

    fn on_cross(&mut self, deliver_at: SimTime, _msg: CrossMsg<()>) {
        self.sim
            .deliver_at(deliver_at, VALIDATOR, VALIDATOR, ShardMsg::Credit);
    }

    fn finish(self) -> ShardReport {
        let dispatch_hash = self.sim.dispatch_hash_or_zero();
        ShardReport {
            metrics: self.sim.into_metrics(),
            dispatch_hash,
        }
    }
}

/// What one sweep cell measured.
#[derive(Debug)]
pub struct CellOutcome {
    /// Completed transactions per simulated second (cross-shard ones
    /// count once, at credit time).
    pub measured_tps: f64,
    /// Completed transactions in the window.
    pub completed: u64,
    /// Cross-shard debits exchanged at barriers.
    pub cross_messages: u64,
    /// Final-epoch debits with no barrier left to deliver them.
    pub undelivered: u64,
    /// Fold of all per-shard dispatch hashes (0 without det-sanitizer).
    pub combined_hash: u64,
    /// The per-shard dispatch hashes the fold ran over, in shard-index
    /// order (all zero without det-sanitizer).
    pub shard_hashes: Vec<u64>,
    /// All shard metrics merged in shard-index order.
    pub metrics: Metrics,
}

/// Runs one (K, f) cell through the shard executor on `threads`
/// worker threads. `threads = 1` is the serial reference; any other
/// count must produce the identical outcome.
pub fn run_cell(params: &ShardNetParams, threads: usize) -> CellOutcome {
    let epochs = (params.duration / params.epoch_len.as_secs_f64())
        .ceil()
        .max(1.0) as u64;
    let executor = ShardExecutor {
        shards: params.shards,
        epochs,
        epoch_len: params.epoch_len,
        cross_latency: params.cross_latency,
        threads,
    };
    let outcome = executor.run(|shard| ShardLedgerWorker::new(params, shard));
    let completed = outcome.metrics.count("tx.completed");
    CellOutcome {
        measured_tps: completed as f64 / params.duration,
        completed,
        cross_messages: outcome.cross_messages,
        undelivered: outcome.undelivered,
        combined_hash: outcome.combined_hash,
        shard_hashes: outcome.shard_hashes,
        metrics: outcome.metrics,
    }
}

/// The e13 sweep-cell parameters shared by the experiment binary and
/// the determinism tests: per-cell seed derived from
/// `(experiment, K, f_index)` so every sweep point is independently
/// reproducible.
pub fn cell_params(k: usize, f: f64, f_index: usize, smoke: bool) -> ShardNetParams {
    let capacity = 50.0;
    ShardNetParams {
        shards: k,
        capacity,
        cross_fraction: f,
        offered_per_shard: capacity * 3.0,
        duration: if smoke { 6.0 } else { 30.0 },
        epoch_len: SimTime::from_millis(1_000),
        cross_latency: SimTime::from_millis(100),
        replicas: 2,
        seed: mix(mix(mix(0, 13), k as u64), f_index as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(shards: usize, f: f64) -> ShardNetParams {
        ShardNetParams {
            shards,
            capacity: 40.0,
            cross_fraction: f,
            offered_per_shard: 120.0,
            duration: 3.0,
            epoch_len: SimTime::from_millis(500),
            cross_latency: SimTime::from_millis(50),
            replicas: 2,
            seed: 0xabcdef,
        }
    }

    #[test]
    fn saturated_local_throughput_tracks_capacity() {
        let out = run_cell(&tiny(1, 0.0), 1);
        // Saturated M/D/1: throughput ≈ capacity (minus the ramp-in).
        assert!(
            out.measured_tps > 30.0 && out.measured_tps <= 41.0,
            "measured {}",
            out.measured_tps
        );
        assert_eq!(out.cross_messages, 0);
        assert_eq!(out.undelivered, 0);
    }

    #[test]
    fn cross_shard_traffic_pays_the_tax() {
        let local = run_cell(&tiny(4, 0.0), 1);
        let crossy = run_cell(&tiny(4, 1.0), 1);
        assert!(crossy.cross_messages > 0);
        assert!(
            crossy.measured_tps < local.measured_tps,
            "f=1.0 ({}) should complete fewer than f=0 ({})",
            crossy.measured_tps,
            local.measured_tps
        );
    }

    #[test]
    fn parallel_cell_matches_serial_cell() {
        for f in [0.0, 0.3] {
            let serial = run_cell(&tiny(4, f), 1);
            let parallel = run_cell(&tiny(4, f), 4);
            assert_eq!(serial.completed, parallel.completed);
            assert_eq!(serial.cross_messages, parallel.cross_messages);
            assert_eq!(serial.combined_hash, parallel.combined_hash);
            assert_eq!(serial.metrics.to_string(), parallel.metrics.to_string());
        }
    }

    #[test]
    fn gossip_reaches_replicas() {
        let out = run_cell(&tiny(2, 0.1), 1);
        // Every completed service slot broadcasts to both replicas.
        assert!(out.metrics.count("replica.applied") > out.completed);
    }

    #[test]
    fn cell_seeds_are_independent() {
        let a = cell_params(4, 0.3, 2, true);
        let b = cell_params(8, 0.3, 2, true);
        let c = cell_params(4, 1.0, 3, true);
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.seed, c.seed);
    }
}
