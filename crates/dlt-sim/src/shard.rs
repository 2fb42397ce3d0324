//! Parallel per-shard simulation with deterministic cross-shard epochs.
//!
//! The engine is single-threaded by design: one `(time, seq)` queue per
//! [`crate::Simulation`], with `Rc`-shared payloads that are deliberately
//! `!Send`. This module scales *across* simulations instead of inside
//! one: K independent shard simulations advance in lock-step between
//! **epoch barriers**, and at each barrier a deterministic cross-shard
//! exchange moves messages between shards.
//!
//! Determinism argument (see DESIGN.md §3d):
//!
//! 1. Between barriers each shard runs its own fully deterministic
//!    simulation; no state is shared, so thread scheduling cannot
//!    influence a shard's trajectory.
//! 2. At a barrier every outbound cross-shard message carries the key
//!    `(sent_at, seq, src)` where `seq` is a per-shard monotone counter.
//!    The key is unique (same `src` ⇒ different `seq`), so sorting the
//!    combined outbox yields one total order regardless of which worker
//!    thread finished first.
//! 3. Receipts are injected at the fixed time `epoch_end +
//!    cross_latency`, in sorted order, through
//!    [`ShardWorker::on_cross`] — so each destination shard sees an
//!    identical injection sequence whether the run used 1 thread or 16.
//!
//! Because of the `Rc` payloads a worker simulation must be *built and
//! consumed on its worker thread*; the executor therefore takes a
//! `Fn(usize) -> W + Sync` factory rather than pre-built workers, and
//! only the cross-shard payload type `W::Cross` ever crosses a thread
//! boundary. Final per-shard [`crate::metrics::Metrics`] are merged in
//! shard-index order and per-shard dispatch hashes are folded (also in
//! shard-index order) into one combined hash, so the engine's dispatch
//! hash covers the parallel path end to end.

use std::sync::mpsc;
use std::thread;

use crate::metrics::Metrics;
use crate::time::SimTime;

/// One cross-shard message, emitted by a shard during an epoch and
/// delivered to another shard after the next barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossMsg<C> {
    /// Simulated time the source shard emitted the message.
    pub sent_at: SimTime,
    /// Per-source-shard monotone sequence number (assigned by the
    /// worker; must be strictly increasing within one shard so the
    /// exchange key is unique).
    pub seq: u64,
    /// Source shard index.
    pub src: usize,
    /// Destination shard index.
    pub dst: usize,
    /// The protocol payload. Must be `Send`: this is the only data
    /// that crosses a thread boundary mid-run.
    pub payload: C,
}

/// Final state a shard worker hands back to the executor.
#[derive(Debug)]
pub struct ShardReport {
    /// The shard simulation's metrics, merged into the combined view
    /// in shard-index order.
    pub metrics: Metrics,
    /// The shard's dispatch hash.
    pub dispatch_hash: u64,
}

/// One shard's simulation, driven by the executor between barriers.
///
/// Implementations own a [`crate::Simulation`] (plus any workload
/// state) and translate between the executor's epoch/cross-shard view
/// and the simulation's event queue.
pub trait ShardWorker {
    /// Payload type of cross-shard messages. The only type that
    /// crosses threads.
    type Cross: Send + 'static;

    /// Runs the shard up to `epoch_end` (inclusive) and returns the
    /// cross-shard messages emitted during this epoch. `seq` values in
    /// the returned messages must be strictly increasing across the
    /// whole run (a per-shard counter, never reset between epochs).
    fn run_epoch(&mut self, epoch: u64, epoch_end: SimTime) -> Vec<CrossMsg<Self::Cross>>;

    /// Injects a cross-shard receipt addressed to this shard.
    /// `deliver_at` is the fixed barrier delivery time (`epoch_end +
    /// cross_latency`); calls arrive in the exchange's global sorted
    /// order.
    fn on_cross(&mut self, deliver_at: SimTime, msg: CrossMsg<Self::Cross>);

    /// Consumes the worker after the last epoch and reports final
    /// metrics and the dispatch hash.
    fn finish(self) -> ShardReport;
}

/// Everything the executor hands back after the last barrier.
#[derive(Debug)]
pub struct ExecutorOutcome {
    /// All shard metrics merged (re-interned) in shard-index order.
    pub metrics: Metrics,
    /// Per-shard dispatch hashes in shard-index order.
    pub shard_hashes: Vec<u64>,
    /// Shard count and per-shard hashes folded into one value, in
    /// shard-index order — thread-count independent.
    pub combined_hash: u64,
    /// Cross-shard messages delivered across all barriers.
    pub cross_messages: u64,
    /// Messages emitted in the final epoch, which have no following
    /// barrier to deliver them (dropped, by construction).
    pub undelivered: u64,
}

/// SplitMix64 fold — the mixer of the engine's dispatch hash, also
/// used for seed derivation and the combined hash.
pub fn mix(h: u64, v: u64) -> u64 {
    let mut z = (h ^ v).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sorts a barrier's combined outbox into the canonical exchange
/// order: `(sent_at, seq, src)`. The key is unique (per-shard `seq` is
/// strictly monotone), so the result is independent of the order the
/// per-thread outboxes were concatenated in.
pub fn sort_exchange<C>(msgs: &mut [CrossMsg<C>]) {
    msgs.sort_by_key(|m| (m.sent_at, m.seq, m.src));
}

/// Reads the `DLT_THREADS` knob: worker-thread count for the shard
/// executor. Defaults to 1 (serial); values are clamped to at least 1.
pub fn threads_from_env() -> usize {
    std::env::var("DLT_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(1, |n| n.max(1))
}

/// Runs K shard simulations between epoch barriers, serially or on
/// worker threads, with identical results either way.
#[derive(Debug, Clone, Copy)]
pub struct ShardExecutor {
    /// Number of shards (= worker simulations).
    pub shards: usize,
    /// Number of epochs to run.
    pub epochs: u64,
    /// Simulated length of one epoch.
    pub epoch_len: SimTime,
    /// Fixed simulated latency a cross-shard receipt pays past the
    /// barrier: delivery at `epoch_end + cross_latency`.
    pub cross_latency: SimTime,
    /// Worker threads. 1 runs everything on the calling thread; values
    /// above `shards` are clamped down.
    pub threads: usize,
}

impl ShardExecutor {
    /// End of epoch `e` (0-based) in simulated time.
    fn epoch_end(&self, epoch: u64) -> SimTime {
        SimTime::from_micros(self.epoch_len.as_micros().saturating_mul(epoch + 1))
    }

    /// Runs the executor. The factory is called once per shard index —
    /// on the worker thread that owns the shard — so `W` itself never
    /// crosses threads (it can hold `Rc` payloads freely).
    pub fn run<W, F>(&self, factory: F) -> ExecutorOutcome
    where
        W: ShardWorker,
        F: Fn(usize) -> W + Sync,
    {
        assert!(self.shards > 0, "executor needs at least one shard");
        assert!(self.epochs > 0, "executor needs at least one epoch");
        assert!(
            self.epoch_len > SimTime::ZERO,
            "executor needs a positive epoch length"
        );
        let reports = if self.threads <= 1 || self.shards == 1 {
            self.run_serial(&factory)
        } else {
            self.run_parallel(&factory)
        };
        self.merge(reports)
    }

    /// Serial reference path: every shard on the calling thread, same
    /// barrier/exchange schedule as the parallel path.
    fn run_serial<W, F>(&self, factory: &F) -> (Vec<(usize, ShardReport)>, u64, u64)
    where
        W: ShardWorker,
        F: Fn(usize) -> W,
    {
        let mut workers: Vec<W> = (0..self.shards).map(factory).collect();
        let mut delivered = 0u64;
        let mut undelivered = 0u64;
        for epoch in 0..self.epochs {
            let epoch_end = self.epoch_end(epoch);
            let mut outbox: Vec<CrossMsg<W::Cross>> = Vec::new();
            for worker in &mut workers {
                outbox.extend(worker.run_epoch(epoch, epoch_end));
            }
            if epoch + 1 == self.epochs {
                undelivered += outbox.len() as u64;
                continue;
            }
            sort_exchange(&mut outbox);
            delivered += outbox.len() as u64;
            let deliver_at = epoch_end.saturating_add(self.cross_latency);
            for msg in outbox {
                assert!(
                    msg.dst < self.shards,
                    "cross-shard message to unknown shard"
                );
                workers[msg.dst].on_cross(deliver_at, msg);
            }
        }
        let reports = workers
            .into_iter()
            .enumerate()
            .map(|(shard, w)| (shard, w.finish()))
            .collect();
        (reports, delivered, undelivered)
    }

    /// Parallel path: `nthreads` scoped workers, shard `i` owned by
    /// thread `i % nthreads`. Each barrier is a gather (worker →
    /// coordinator outboxes), a canonical sort, and a scatter
    /// (coordinator → owning worker, preserving the sorted order).
    fn run_parallel<W, F>(&self, factory: &F) -> (Vec<(usize, ShardReport)>, u64, u64)
    where
        W: ShardWorker,
        F: Fn(usize) -> W + Sync,
    {
        let nthreads = self.threads.min(self.shards);
        let exec = *self;
        let mut delivered = 0u64;
        let mut undelivered = 0u64;

        let mut reports: Vec<(usize, ShardReport)> = thread::scope(|scope| {
            let (gather_tx, gather_rx) = mpsc::channel::<(usize, Vec<CrossMsg<W::Cross>>)>();
            let mut scatter_txs = Vec::with_capacity(nthreads);
            let mut handles = Vec::with_capacity(nthreads);

            for tid in 0..nthreads {
                let (scatter_tx, scatter_rx) = mpsc::channel::<Vec<CrossMsg<W::Cross>>>();
                scatter_txs.push(scatter_tx);
                let gather = gather_tx.clone();
                let factory = &factory;
                handles.push(scope.spawn(move || {
                    // Build owned shards here: `W` never leaves this
                    // thread, only `W::Cross` does.
                    let mut owned: Vec<(usize, W)> = (tid..exec.shards)
                        .step_by(nthreads)
                        .map(|shard| (shard, factory(shard)))
                        .collect();
                    for epoch in 0..exec.epochs {
                        let epoch_end = exec.epoch_end(epoch);
                        let mut outbox = Vec::new();
                        for (_, worker) in &mut owned {
                            outbox.extend(worker.run_epoch(epoch, epoch_end));
                        }
                        gather
                            .send((tid, outbox))
                            .expect("coordinator hung up mid-run");
                        if epoch + 1 == exec.epochs {
                            break;
                        }
                        let inbound = scatter_rx.recv().expect("coordinator hung up mid-run");
                        let deliver_at = epoch_end.saturating_add(exec.cross_latency);
                        // Inbound arrives in the global sorted order;
                        // injecting sequentially preserves each shard's
                        // relative order, which is all a shard can see.
                        for msg in inbound {
                            let slot = owned
                                .iter_mut()
                                .find(|(shard, _)| *shard == msg.dst)
                                .expect("message routed to a shard this thread does not own");
                            slot.1.on_cross(deliver_at, msg);
                        }
                    }
                    owned
                        .into_iter()
                        .map(|(shard, w)| (shard, w.finish()))
                        .collect::<Vec<_>>()
                }));
            }
            drop(gather_tx);

            // Coordinator: one gather → sort → scatter round per barrier.
            for epoch in 0..exec.epochs {
                let mut outbox: Vec<CrossMsg<W::Cross>> = Vec::new();
                for _ in 0..nthreads {
                    let (_tid, batch) = gather_rx.recv().expect("a shard worker panicked");
                    outbox.extend(batch);
                }
                if epoch + 1 == exec.epochs {
                    undelivered += outbox.len() as u64;
                    break;
                }
                sort_exchange(&mut outbox);
                delivered += outbox.len() as u64;
                let mut routed: Vec<Vec<CrossMsg<W::Cross>>> =
                    (0..nthreads).map(|_| Vec::new()).collect();
                for msg in outbox {
                    assert!(
                        msg.dst < exec.shards,
                        "cross-shard message to unknown shard"
                    );
                    routed[msg.dst % nthreads].push(msg);
                }
                for (tx, batch) in scatter_txs.iter().zip(routed) {
                    tx.send(batch).expect("a shard worker panicked");
                }
            }

            handles
                .into_iter()
                .flat_map(|h| h.join().expect("a shard worker panicked"))
                .collect()
        });
        reports.sort_by_key(|(shard, _)| *shard);
        (reports, delivered, undelivered)
    }

    /// Merges per-shard reports in shard-index order into the combined
    /// outcome — identical for the serial and parallel paths.
    fn merge(&self, parts: (Vec<(usize, ShardReport)>, u64, u64)) -> ExecutorOutcome {
        let (reports, cross_messages, undelivered) = parts;
        debug_assert!(reports
            .iter()
            .enumerate()
            .all(|(i, (shard, _))| i == *shard));
        let mut metrics = Metrics::new();
        let mut shard_hashes = Vec::with_capacity(reports.len());
        let mut combined_hash = mix(0, reports.len() as u64);
        for (_, report) in &reports {
            metrics.merge(&report.metrics);
            shard_hashes.push(report.dispatch_hash);
            combined_hash = mix(combined_hash, report.dispatch_hash);
        }
        ExecutorOutcome {
            metrics,
            shard_hashes,
            combined_hash,
            cross_messages,
            undelivered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy worker: each epoch it "earns" one unit per epoch, sends a
    /// token to the next shard, and records everything it saw so the
    /// test can compare serial and parallel trajectories exactly.
    struct TokenWorker {
        shard: usize,
        shards: usize,
        seq: u64,
        sent: u64,
        received: Vec<(SimTime, usize, u64)>,
        metrics: Metrics,
    }

    impl TokenWorker {
        fn new(shard: usize, shards: usize) -> Self {
            TokenWorker {
                shard,
                shards,
                seq: 0,
                sent: 0,
                received: Vec::new(),
                metrics: Metrics::new(),
            }
        }
    }

    impl ShardWorker for TokenWorker {
        type Cross = u64;

        fn run_epoch(&mut self, epoch: u64, epoch_end: SimTime) -> Vec<CrossMsg<u64>> {
            // Two messages per epoch with equal timestamps across
            // shards, to exercise the seq/src tiebreaks.
            (0..2)
                .map(|i| {
                    let seq = self.seq;
                    self.seq += 1;
                    self.sent += 1;
                    CrossMsg {
                        sent_at: epoch_end.saturating_sub(SimTime::from_millis(i + 1)),
                        seq,
                        src: self.shard,
                        dst: (self.shard + 1) % self.shards,
                        payload: epoch * 100 + i,
                    }
                })
                .collect()
        }

        fn on_cross(&mut self, deliver_at: SimTime, msg: CrossMsg<u64>) {
            self.received.push((deliver_at, msg.src, msg.payload));
            self.metrics.inc_named("cross.received");
        }

        fn finish(mut self) -> ShardReport {
            self.metrics.add_named("cross.sent", self.sent);
            for (at, _, _) in &self.received {
                self.metrics
                    .record_named("cross.deliver_ms", at.as_secs_f64() * 1e3);
            }
            ShardReport {
                metrics: self.metrics,
                // Stand-in fingerprint: shards fold their receive log.
                dispatch_hash: self
                    .received
                    .iter()
                    .fold(mix(0, self.shard as u64), |h, (at, src, p)| {
                        mix(mix(mix(h, at.as_micros()), *src as u64), *p)
                    }),
            }
        }
    }

    fn executor(shards: usize, threads: usize) -> ShardExecutor {
        ShardExecutor {
            shards,
            epochs: 5,
            epoch_len: SimTime::from_secs(1),
            cross_latency: SimTime::from_millis(100),
            threads,
        }
    }

    fn outcome(shards: usize, threads: usize) -> ExecutorOutcome {
        executor(shards, threads).run(|shard| TokenWorker::new(shard, shards))
    }

    #[test]
    fn serial_and_parallel_agree_exactly() {
        for &shards in &[1usize, 2, 3, 8] {
            let serial = outcome(shards, 1);
            for &threads in &[2usize, 3, 16] {
                let parallel = outcome(shards, threads);
                assert_eq!(serial.combined_hash, parallel.combined_hash);
                assert_eq!(serial.shard_hashes, parallel.shard_hashes);
                assert_eq!(serial.cross_messages, parallel.cross_messages);
                assert_eq!(serial.undelivered, parallel.undelivered);
                assert_eq!(serial.metrics.to_string(), parallel.metrics.to_string());
            }
        }
    }

    #[test]
    fn exchange_counts_and_final_epoch_drop() {
        let out = outcome(4, 2);
        // 4 shards × 2 msgs × 4 delivered epochs; final epoch undelivered.
        assert_eq!(out.cross_messages, 32);
        assert_eq!(out.undelivered, 8);
        assert_eq!(out.metrics.count("cross.received"), 32);
        assert_eq!(out.metrics.count("cross.sent"), 40);
        assert_eq!(out.metrics.len("cross.deliver_ms"), 32);
    }

    #[test]
    fn sort_exchange_is_total_and_input_order_invariant() {
        let mk = |sent_ms: u64, seq: u64, src: usize| CrossMsg {
            sent_at: SimTime::from_millis(sent_ms),
            seq,
            src,
            dst: 0,
            payload: (),
        };
        let mut a = vec![mk(5, 0, 1), mk(5, 0, 0), mk(1, 7, 2), mk(5, 1, 0)];
        let mut b = a.clone();
        b.reverse();
        sort_exchange(&mut a);
        sort_exchange(&mut b);
        assert_eq!(a, b);
        let keys: Vec<_> = a.iter().map(|m| (m.sent_at, m.seq, m.src)).collect();
        assert_eq!(
            keys,
            vec![
                (SimTime::from_millis(1), 7, 2),
                (SimTime::from_millis(5), 0, 0),
                (SimTime::from_millis(5), 0, 1),
                (SimTime::from_millis(5), 1, 0),
            ]
        );
    }

    #[test]
    fn threads_above_shard_count_are_clamped() {
        let serial = outcome(2, 1);
        let oversubscribed = outcome(2, 64);
        assert_eq!(serial.combined_hash, oversubscribed.combined_hash);
        assert_eq!(
            serial.metrics.to_string(),
            oversubscribed.metrics.to_string()
        );
    }

    #[test]
    fn mix_matches_splitmix_reference() {
        // Fixed-point check so the mixer cannot silently drift.
        assert_eq!(mix(0, 0), 0xe220_a839_7b1d_cdaf);
        // A single fold is symmetric in (h, v); chained folds are not.
        assert_ne!(mix(mix(0, 1), 2), mix(mix(0, 2), 1));
    }
}
