//! `shard-cell`: an e13-style cell through the epoch-barrier
//! `ShardExecutor`, K shards on worker threads at 3x offered overload.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dlt_bench::shardnet::{ShardLedgerWorker, ShardNetParams};
use dlt_sim::rng::SimRng;
use dlt_sim::shard::{mix, CrossMsg, ExecutorOutcome, ShardExecutor, ShardReport, ShardWorker};
use dlt_sim::time::SimTime;

use crate::outcome::{Fold, Outcome};
use crate::probe::{self, Trace};

/// Independent cells per run, each with its own seed; one cell is
/// resident at a time, which bounds memory.
pub const CELLS: u64 = 4;

/// Cell `cell` of a run.
pub fn params(seed: u64, cell: u64) -> ShardNetParams {
    // Ten times e13's validator capacity: each epoch barrier then guards
    // ~10 ms of shard work rather than ~1 ms, so thread wake-up latency
    // on a loaded host does not dominate the run.
    let capacity = 500.0;
    ShardNetParams {
        shards: 4,
        capacity,
        cross_fraction: 0.3,
        offered_per_shard: capacity * 3.0,
        duration: 75.0,
        epoch_len: SimTime::from_millis(1_000),
        cross_latency: SimTime::from_millis(100),
        replicas: 2,
        seed: mix(mix(seed, 0x5a4d), cell),
    }
}

/// Offered submissions per shard: the Poisson schedule each
/// `ShardLedgerWorker` draws from its cell seed, regenerated here so the
/// benchmark knows what was offered. Untimed: it is the benchmark's
/// bookkeeping, not the program's set-up.
fn offered(p: &ShardNetParams, inputs: &mut Fold) -> u64 {
    let mut total = 0;
    for shard in 0..p.shards {
        let mut workload = SimRng::new(mix(mix(p.seed, shard as u64), 0x5eed));
        let mean_gap = 1.0 / p.offered_per_shard;
        let mut t = 0.0f64;
        loop {
            t += workload.exponential(mean_gap);
            if t >= p.duration {
                break;
            }
            let cross = p.shards > 1 && workload.chance(p.cross_fraction);
            let dst = if cross {
                let dst = workload.below(p.shards as u64 - 1);
                dst + u64::from(dst >= shard as u64)
            } else {
                shard as u64
            };
            inputs.add(t.to_bits());
            inputs.add(dst);
            total += 1;
        }
    }
    total
}

/// Host-time record of one `run_epoch` call.
#[derive(Debug, Clone, Copy)]
struct EpochTiming {
    shard: usize,
    epoch: u64,
    start: Instant,
    end: Instant,
}

/// Everything the timed workers report.
#[derive(Debug, Default)]
struct ShardLog {
    epochs: Vec<EpochTiming>,
    cross_ns: u64,
}

/// A shard worker with timers around each epoch and each receipt.
struct TimedShard<W> {
    inner: W,
    shard: usize,
    log: Arc<Mutex<ShardLog>>,
    epochs: Vec<EpochTiming>,
    cross_ns: u64,
}

impl<W: ShardWorker> ShardWorker for TimedShard<W> {
    type Cross = W::Cross;

    fn run_epoch(&mut self, epoch: u64, epoch_end: SimTime) -> Vec<CrossMsg<W::Cross>> {
        let start = Instant::now();
        let out = self.inner.run_epoch(epoch, epoch_end);
        self.epochs.push(EpochTiming {
            shard: self.shard,
            epoch,
            start,
            end: Instant::now(),
        });
        out
    }

    fn on_cross(&mut self, deliver_at: SimTime, msg: CrossMsg<W::Cross>) {
        let start = Instant::now();
        self.inner.on_cross(deliver_at, msg);
        self.cross_ns += probe::ns_since(start);
    }

    fn finish(self) -> ShardReport {
        let mut log = self.log.lock().expect("no worker panicked holding the log");
        log.epochs.extend(self.epochs);
        log.cross_ns += self.cross_ns;
        drop(log);
        self.inner.finish()
    }
}

/// Counters of one cell, summed over cells.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    offered: u64,
    completed: u64,
    completed_cross: u64,
    debits: u64,
    applied: u64,
    messages: u64,
    cross_messages: u64,
    undelivered: u64,
}

impl Totals {
    fn add(&mut self, o: &Totals) {
        self.offered += o.offered;
        self.completed += o.completed;
        self.completed_cross += o.completed_cross;
        self.debits += o.debits;
        self.applied += o.applied;
        self.messages += o.messages;
        self.cross_messages += o.cross_messages;
        self.undelivered += o.undelivered;
    }

    fn of(offered: u64, result: &ExecutorOutcome) -> Self {
        let m = &result.metrics;
        Totals {
            offered,
            completed: m.count("tx.completed"),
            completed_cross: m.count("tx.completed_cross"),
            debits: m.count("tx.cross_debits"),
            applied: m.count("replica.applied"),
            messages: m.count("net.messages"),
            cross_messages: result.cross_messages,
            undelivered: result.undelivered,
        }
    }

    /// Completed, plus credits still queued at their destination, plus
    /// debits left undelivered by the final epoch, never exceed offered.
    fn accounted_within_offered(&self) -> bool {
        let queued_credits = self.cross_messages.saturating_sub(self.completed_cross);
        self.completed + queued_credits + self.undelivered <= self.offered
            && self.completed_cross <= self.cross_messages
    }

    /// Every debit was either exchanged at a barrier or left over.
    fn debits_conserved(&self) -> bool {
        self.cross_messages + self.undelivered == self.debits
    }
}

/// Host busy and barrier-wait nanoseconds of one traced cell.
fn busy_and_wait(log: &ShardLog, epochs: u64) -> (u64, u64) {
    let busy: u64 = log
        .epochs
        .iter()
        .map(|e| e.end.duration_since(e.start).as_nanos() as u64)
        .sum::<u64>()
        + log.cross_ns;
    // From the last worker finishing epoch e to the first worker
    // starting epoch e + 1.
    let mut wait = 0u64;
    for e in 0..epochs.saturating_sub(1) {
        let last_end = log
            .epochs
            .iter()
            .filter(|x| x.epoch == e)
            .map(|x| x.end)
            .max();
        let next_start = log
            .epochs
            .iter()
            .filter(|x| x.epoch == e + 1)
            .map(|x| x.start)
            .min();
        if let (Some(end), Some(start)) = (last_end, next_start) {
            wait += start.saturating_duration_since(end).as_nanos() as u64;
        }
    }
    (busy, wait)
}

/// Runs the workload once on `threads` worker threads.
///
/// Each `ShardLedgerWorker` builds its shard simulation and pre-loads
/// its arrival schedule on the worker thread that owns it, inside
/// `ShardExecutor::run`. A cell's set-up is the host time from the start
/// of the cell until its last shard is built; the rest of the cell is
/// timed run. On two threads one thread may start its first epoch while
/// the other still builds; that overlap counts as set-up.
pub fn run(seed: u64, traced: bool, threads: usize) -> Outcome {
    let mut trace = traced.then(Trace::new);
    let mut inputs = Fold(CELLS);
    let cells: Vec<(ShardNetParams, u64)> = (0..CELLS)
        .map(|cell| {
            let p = params(seed, cell);
            let offered = offered(&p, &mut inputs);
            (p, offered)
        })
        .collect();

    let (mut setup_ns, mut run_ns) = (0u64, 0u64);
    let mut totals = Totals::default();
    let mut per_cell_ok = (true, true);
    let mut digest = Fold(CELLS);
    let (mut busy_ns, mut wait_ns) = (0u64, 0u64);
    let mut cell_spans = Vec::new();
    for (p, offered) in &cells {
        let executor = ShardExecutor {
            shards: p.shards,
            epochs: (p.duration / p.epoch_len.as_secs_f64()).ceil() as u64,
            epoch_len: p.epoch_len,
            cross_latency: p.cross_latency,
            threads,
        };
        let cell_start = Instant::now();
        let built_at = Mutex::new(cell_start);
        let build = |shard| {
            let worker = ShardLedgerWorker::new(p, shard);
            let now = Instant::now();
            let mut last = built_at
                .lock()
                .expect("no worker panicked holding the build clock");
            *last = (*last).max(now);
            worker
        };
        let log = Arc::new(Mutex::new(ShardLog::default()));
        let result = if traced {
            executor.run(|shard| TimedShard {
                inner: build(shard),
                shard,
                log: Arc::clone(&log),
                epochs: Vec::new(),
                cross_ns: 0,
            })
        } else {
            executor.run(build)
        };
        let cell_end = Instant::now();
        let built_at = built_at.into_inner().expect("workers have finished");
        setup_ns += built_at.duration_since(cell_start).as_nanos() as u64;
        run_ns += cell_end.duration_since(built_at).as_nanos() as u64;
        if traced {
            let log = std::mem::take(&mut *log.lock().expect("workers have finished"));
            let (busy, wait) = busy_and_wait(&log, executor.epochs);
            busy_ns += busy;
            wait_ns += wait;
            cell_spans.push((cell_start, built_at, cell_end, log.epochs));
        }
        let cell = Totals::of(*offered, &result);
        per_cell_ok.0 &= cell.accounted_within_offered();
        per_cell_ok.1 &= cell.debits_conserved();
        for v in [
            cell.offered,
            cell.completed,
            cell.completed_cross,
            cell.debits,
            cell.applied,
            cell.messages,
            cell.cross_messages,
            cell.undelivered,
        ] {
            digest.add(v);
        }
        totals.add(&cell);
    }
    let run_s = run_ns as f64 / 1e9;

    let window_s: f64 = cells.iter().map(|(p, _)| p.duration).sum();
    let mut out = Outcome {
        setup_s: setup_ns as f64 / 1e9,
        run_s,
        offered: totals.offered,
        confirmed_in_window: totals.completed,
        window_s,
        input_digest: inputs.0,
        digest: digest.0,
        ..Outcome::default()
    };
    out.check("shard.accounted_never_exceeds_offered", per_cell_ok.0);
    out.check("shard.debits_exchanged_or_undelivered", per_cell_ok.1);
    out.sim
        .insert("shard.completed".into(), totals.completed as f64);
    out.sim
        .insert("shard.cross_msgs".into(), totals.cross_messages as f64);
    out.sim
        .insert("shard.undelivered".into(), totals.undelivered as f64);

    if let Some(mut t) = trace.take() {
        for (start, built, end, epochs) in cell_spans {
            let cell = t.record("shard.cell", start, end, None);
            t.record("setup", start, built, Some(cell));
            for e in epochs {
                t.record(
                    &format!("shard.{}.run_epoch", e.shard),
                    e.start,
                    e.end,
                    Some(cell),
                );
            }
        }
        let used_threads = threads.min(cells[0].0.shards) as f64;
        t.set("shard.epoch_busy_ns", busy_ns as f64);
        t.set("shard.barrier_wait_ns", wait_ns as f64);
        t.set(
            "shard.parallel_eff",
            probe::ratio(busy_ns as f64, used_threads * run_s * 1e9),
        );
        t.set("shard.cross_msgs", totals.cross_messages as f64);
        t.set("shard.undelivered", totals.undelivered as f64);
        // Every dispatched event in a shard is a submission, a credit,
        // a service-completion timer or a replica delivery.
        let events = totals.offered
            + totals.cross_messages
            + totals.completed
            + totals.debits
            + totals.applied;
        t.set("engine.events", events as f64);
        t.set("engine.msgs_scheduled", totals.messages as f64);
        out.trace = Some(t);
    }
    out
}
