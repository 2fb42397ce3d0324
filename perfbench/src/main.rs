//! One workload of the end-to-end benchmark, in one process.
//!
//! ```text
//! perfbench --workload <chain-gossip|lattice-settle|ledger-poll|shard-cell>
//!           --seed <n> [--trace] [--threads <n>] [--trace-out <path>]
//! perfbench --calibrate
//! ```
//!
//! The process builds every input from the seed (set-up, timed
//! separately), runs the workload once through the crates' public APIs
//! (the timed run), checks the outcome, and prints one JSON object on
//! its last line of standard output. `perfbench/run.py` starts one such
//! process per repetition and aggregates them. With `--trace` the
//! layer traits are wrapped in timers and the per-layer metrics are
//! added; the simulated outcome must not change. It exits non-zero when
//! a correctness check fails. With `--calibrate` it only times the
//! reference work of [`calib`] and prints the seconds.

mod calib;
mod chain;
mod lattice;
mod ledgers;
mod outcome;
mod probe;
mod shard;

use std::process::ExitCode;

use outcome::Outcome;

/// Workload names, in the order `run.py` lists them.
pub const WORKLOADS: [&str; 4] = [
    "chain-gossip",
    "lattice-settle",
    "ledger-poll",
    "shard-cell",
];

/// Runs one workload.
pub fn run_workload(name: &str, seed: u64, traced: bool, threads: usize) -> Outcome {
    match name {
        "chain-gossip" => chain::run(seed, traced),
        "lattice-settle" => lattice::run(seed, traced),
        "ledger-poll" => ledgers::run(seed, traced),
        "shard-cell" => shard::run(seed, traced, threads),
        other => panic!("unknown workload {other:?}"),
    }
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    traced: bool,
    threads: usize,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        traced: false,
        threads: 2,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--trace" => args.traced = true,
            "--threads" => {
                args.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--trace-out" => args.trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if args.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    if std::env::args().skip(1).eq(["--calibrate"]) {
        println!("{}", calib::seconds());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let outcome = run_workload(&args.workload, args.seed, args.traced, args.threads);
    if let (Some(path), Some(trace)) = (&args.trace_out, &outcome.trace) {
        let spans = format!("{}\n", trace.spans_json());
        if let Err(err) = std::fs::write(path, spans) {
            eprintln!("perfbench: cannot write {path}: {err}");
        }
    }
    for (name, ok) in &outcome.checks {
        if !ok {
            eprintln!("perfbench: check failed: {name}");
        }
    }
    println!(
        "{}",
        outcome.to_json(&args.workload, args.seed, peak_rss_mb())
    );
    if outcome.checks.iter().all(|(_, ok)| *ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
