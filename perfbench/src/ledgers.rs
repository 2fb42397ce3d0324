//! `ledger-poll`: the three `dlt-core` adapters with no network engine.
//! Zipf-skewed clients submit above Bitcoin-like capacity and poll
//! every outstanding ticket each step until it reads `Confirmed`, so
//! reads run beside writes.

use std::time::Instant;

use dlt_blockchain::bitcoin::BitcoinParams;
use dlt_blockchain::ethereum::EthereumParams;
use dlt_core::ledger::{BitcoinAdapter, DistributedLedger, EthereumAdapter, NanoAdapter, TxStatus};
use dlt_crypto::Digest;
use dlt_dag::lattice::LatticeParams;
use dlt_sim::rng::SimRng;
use dlt_sim::shard::mix;
use dlt_sim::time::SimTime;

use crate::outcome::{nearest_rank, Fold, Outcome};
use crate::probe::{self, Trace};

/// Workload shape.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Client actors (each a funded identity on every ledger).
    pub actors: usize,
    /// Transfers offered during the load window (to every adapter).
    pub transfers: usize,
    /// Simulated load window, seconds.
    pub window_s: u64,
    /// Simulated drain after the window, seconds.
    pub drain_s: u64,
    /// Client polling step, ms.
    pub step_ms: u64,
    /// Zipf exponent of sender and recipient choice.
    pub zipf_s: f64,
}

/// The benchmark size.
pub const PARAMS: Params = Params {
    actors: 8,
    transfers: 70,
    window_s: 70,
    drain_s: 30,
    step_ms: 2_000,
    zipf_s: 1.0,
};

/// One scheduled submission.
#[derive(Debug, Clone, Copy)]
struct Submission {
    at: SimTime,
    from: usize,
    to: usize,
    amount: u64,
}

/// Host time per adapter call kind.
#[derive(Debug, Default, Clone, Copy)]
struct CallTimes {
    submit_ns: u64,
    advance_ns: u64,
    status_ns: u64,
    status_calls: u64,
}

/// What one adapter did.
struct AdapterRun {
    name: &'static str,
    refused: u64,
    lost: u64,
    confirmed_in_window: u64,
    confirmed_by_polls: u64,
    stats_confirmed: u64,
    regressed: bool,
    backlog_end: u64,
    latencies_ms: Vec<f64>,
    times: CallTimes,
    digest: u64,
}

/// Runs the workload once.
pub fn run(seed: u64, traced: bool) -> Outcome {
    let p = PARAMS;
    let mut trace = traced.then(Trace::new);
    let setup_start = Instant::now();
    let mut rng = SimRng::new(mix(seed, 0x1ed9));

    // The submission schedule: Poisson conditioned on the count,
    // Zipf-skewed senders and recipients (hot keys).
    let window = SimTime::from_secs(p.window_s);
    let mut times: Vec<u64> = (0..p.transfers)
        .map(|_| rng.below(window.as_micros()))
        .collect();
    times.sort_unstable();
    let mut inputs = Fold(p.transfers as u64);
    let schedule: Vec<Submission> = times
        .into_iter()
        .map(|at| {
            let from = rng.zipf(p.actors, p.zipf_s);
            let mut to = rng.zipf(p.actors, p.zipf_s);
            while to == from {
                to = rng.zipf(p.actors, p.zipf_s);
            }
            let amount = 1 + rng.below(10);
            for v in [at, from as u64, to as u64, amount] {
                inputs.add(v);
            }
            Submission {
                at: SimTime::from_micros(at),
                from,
                to,
                amount,
            }
        })
        .collect();

    // Fund and key every actor for its share of the schedule, so the
    // baseline refuses nothing. Fixed floors well above the hottest
    // actor's expected share keep set-up work the same for every seed.
    let mut sends = vec![0usize; p.actors];
    let mut receives = vec![0usize; p.actors];
    for s in &schedule {
        sends[s.from] += 1;
        receives[s.to] += 1;
    }
    let max_sends = sends.iter().copied().max().unwrap_or(1).max(1);
    let max_blocks = sends
        .iter()
        .zip(&receives)
        .map(|(s, r)| s + r)
        .max()
        .unwrap_or(1);
    let height_for = |signatures: usize| (signatures + 1).next_power_of_two().trailing_zeros();
    let bitcoin_outputs = (max_sends + 1).max(48);
    let adapter_seed = mix(seed, 0xada);
    let keygen_start = Instant::now();
    let bitcoin = BitcoinAdapter::new(
        BitcoinParams {
            confirmation_depth: 3,
            max_block_bytes: 8_000,
            ..BitcoinParams::default()
        },
        SimTime::from_secs(10),
        p.actors,
        bitcoin_outputs,
        100,
        adapter_seed,
    );
    let ethereum = EthereumAdapter::new(
        EthereumParams {
            confirmation_depth: 3,
            ..EthereumParams::default()
        },
        SimTime::from_secs(1),
        p.actors,
        10_000_000,
        height_for(max_sends).max(6),
        adapter_seed,
    );
    let nano = NanoAdapter::new(
        LatticeParams {
            work_difficulty_bits: 2,
            verify_signatures: true,
            verify_work: true,
        },
        p.actors,
        10 * bitcoin_outputs as u64,
        height_for(max_blocks).max(6),
        SimTime::from_millis(200),
        SimTime::from_millis(300),
        adapter_seed,
    );
    let keygen_ns = probe::ns_since(keygen_start);
    let keygens = p.actors * bitcoin_outputs + 2 * p.actors + 1;
    let setup_s = setup_start.elapsed().as_secs_f64();
    if let Some(t) = trace.as_mut() {
        t.record_since("setup", setup_start, None);
    }

    // Timed run: the same schedule through each adapter in turn.
    let run_start = Instant::now();
    let mut adapters: [Box<dyn DistributedLedger>; 3] =
        [Box::new(bitcoin), Box::new(ethereum), Box::new(nano)];
    let mut runs = Vec::new();
    let mut spans = Vec::new();
    for adapter in adapters.iter_mut() {
        let start = Instant::now();
        runs.push(drive(adapter.as_mut(), &schedule, &p, traced));
        spans.push((start, Instant::now()));
    }
    let run_end = Instant::now();
    let run_s = run_end.duration_since(run_start).as_secs_f64();

    let mut out = Outcome {
        setup_s,
        run_s,
        offered: (schedule.len() * runs.len()) as u64,
        window_s: p.window_s as f64,
        input_digest: inputs.0,
        ..Outcome::default()
    };
    let mut digest = Fold(0);
    for r in &runs {
        out.failed += r.refused + r.lost;
        out.confirmed_in_window += r.confirmed_in_window;
        digest.add(r.digest);
        let prefix = format!("ledger.{}", short_name(r.name));
        out.check(format!("{prefix}.status_never_regresses"), !r.regressed);
        out.check(
            format!("{prefix}.polled_confirmed_equals_stats"),
            r.confirmed_by_polls == r.stats_confirmed,
        );
        let p50 = if r.latencies_ms.is_empty() {
            0.0
        } else {
            let mut sorted = r.latencies_ms.clone();
            sorted.sort_by(f64::total_cmp);
            nearest_rank(&sorted, 0.5)
        };
        out.sim.insert(format!("{prefix}.confirm_p50_ms"), p50);
        out.sim
            .insert(format!("{prefix}.confirmed"), r.confirmed_by_polls as f64);
        out.sim
            .insert(format!("{prefix}.backlog_end"), r.backlog_end as f64);
        if let Some(t) = trace.as_mut() {
            t.set(&format!("{prefix}.submit_ns"), r.times.submit_ns as f64);
            t.set(&format!("{prefix}.advance_ns"), r.times.advance_ns as f64);
            t.set(&format!("{prefix}.status_ns"), r.times.status_ns as f64);
            t.set(
                &format!("{prefix}.status_calls"),
                r.times.status_calls as f64,
            );
            t.set(&format!("{prefix}.refused"), r.refused as f64);
            t.set(&format!("{prefix}.confirmed"), r.confirmed_by_polls as f64);
            t.set(&format!("{prefix}.confirm_p50_ms"), p50);
            t.set(&format!("{prefix}.backlog_end"), r.backlog_end as f64);
        }
    }
    out.digest = digest.0;
    if let Some(mut t) = trace.take() {
        let run = t.record("run", run_start, run_end, None);
        for (r, (start, end)) in runs.iter().zip(spans) {
            t.record(
                &format!("ledger.{}", short_name(r.name)),
                start,
                end,
                Some(run),
            );
        }
        t.set("crypto.keygens", keygens as f64);
        t.set(
            "crypto.ms_per_keygen",
            keygen_ns as f64 / 1e6 / keygens as f64,
        );
        out.trace = Some(t);
    }
    out
}

/// `bitcoin-like` → `bitcoin`.
fn short_name(name: &str) -> &str {
    name.strip_suffix("-like").unwrap_or(name)
}

/// Drives one adapter through the schedule: each submission at its
/// arrival time, and every `step_ms` each client polls its
/// outstanding tickets.
fn drive(
    ledger: &mut dyn DistributedLedger,
    schedule: &[Submission],
    p: &Params,
    traced: bool,
) -> AdapterRun {
    let mut times = CallTimes::default();
    let mut timed = |slot: fn(&mut CallTimes) -> &mut u64, f: &mut dyn FnMut()| {
        if traced {
            let start = Instant::now();
            f();
            *slot(&mut times) += probe::ns_since(start);
        } else {
            f();
        }
    };
    let window = SimTime::from_secs(p.window_s);
    let end = SimTime::from_secs(p.window_s + p.drain_s);
    let step = SimTime::from_millis(p.step_ms);
    let mut outstanding: Vec<Vec<(Digest, SimTime)>> = vec![Vec::new(); p.actors];
    let mut confirmed: Vec<(Digest, SimTime)> = Vec::new();
    let mut refused = 0u64;
    let mut confirmed_in_window = 0u64;
    let mut latencies_ms = Vec::new();
    let mut digest = Fold(0);
    let mut elapsed = SimTime::ZERO;
    let mut next = 0;
    let mut poll_at = step;
    let mut status_calls = 0u64;
    while poll_at <= end {
        // Submissions due before this poll, each at its own time.
        while next < schedule.len() && schedule[next].at < poll_at {
            let s = schedule[next];
            let dt = s.at - elapsed;
            timed(|t| &mut t.advance_ns, &mut || ledger.advance(dt));
            elapsed = s.at;
            let mut ticket = None;
            timed(|t| &mut t.submit_ns, &mut || {
                ticket = ledger.submit_transfer(s.from, s.to, s.amount)
            });
            match ticket {
                Some(id) => outstanding[s.from].push((id, s.at)),
                None => refused += 1,
            }
            next += 1;
        }
        let dt = poll_at - elapsed;
        timed(|t| &mut t.advance_ns, &mut || ledger.advance(dt));
        elapsed = poll_at;
        for client in outstanding.iter_mut() {
            client.retain(|&(ticket, submitted)| {
                let mut status = TxStatus::Unknown;
                timed(|t| &mut t.status_ns, &mut || {
                    status = ledger.status(&ticket)
                });
                status_calls += 1;
                if status != TxStatus::Confirmed {
                    return true;
                }
                confirmed.push((ticket, submitted));
                latencies_ms.push((elapsed - submitted).as_micros() as f64 / 1e3);
                confirmed_in_window += u64::from(elapsed <= window);
                digest.add(ticket.prefix_u64());
                digest.add(elapsed.as_micros());
                false
            });
        }
        poll_at += step;
    }
    times.status_calls = status_calls;

    // Post-run: confirmations never regress, polls agree with stats,
    // and no outstanding ticket vanished from ledger and mempool.
    let regressed = confirmed
        .iter()
        .any(|(ticket, _)| ledger.status(ticket) != TxStatus::Confirmed);
    let lost = outstanding
        .iter()
        .flatten()
        .filter(|(ticket, _)| ledger.status(ticket) == TxStatus::Unknown)
        .count() as u64;
    let stats = ledger.stats();
    digest.add(stats.confirmed);
    digest.add(stats.pending);
    digest.add(stats.blocks);
    digest.add(stats.ledger_bytes as u64);
    AdapterRun {
        name: ledger.name(),
        refused,
        lost,
        confirmed_in_window,
        confirmed_by_polls: confirmed.len() as u64,
        stats_confirmed: stats.confirmed,
        regressed,
        backlog_end: outstanding.iter().map(Vec::len).sum::<usize>() as u64,
        latencies_ms,
        times,
        digest: digest.0,
    }
}
