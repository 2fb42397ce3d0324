//! e07 — Ledger size (paper §V).
//!
//! Replays an identical payment workload on all three ledgers,
//! measures the serialized growth per transfer, and extrapolates each
//! implementation to a year of operation at its §VI throughput. The
//! paper's reported absolute sizes (145.95 / 39.62 / 3.42 GB) reflect
//! each network's real age and traffic; the reproducible content is the
//! per-transaction footprint and the growth mechanism.

use dlt_bench::{banner, human_bytes, smoke, trace, Table};
use dlt_blockchain::bitcoin::BitcoinParams;
use dlt_blockchain::ethereum::EthereumParams;
use dlt_core::ledger::{
    run_workload_traced, BitcoinAdapter, EthereumAdapter, NanoAdapter, WorkloadConfig,
};
use dlt_core::sizing::{annual_growth_bytes, paper_reported_sizes, GrowthModel};
use dlt_dag::lattice::LatticeParams;
use dlt_sim::time::SimTime;

fn main() {
    let _report = banner("e07", "ledger size growth", "§V");

    // DLT_SMOKE quarters the workload; per-tx byte costs are identical,
    // only the linear-growth fit gets fewer points.
    let secs = if smoke() { 30 } else { 120 };
    let config = WorkloadConfig {
        offered_tps: 2.0,
        duration: SimTime::from_secs(secs),
        drain: SimTime::from_secs(secs),
        amount: 5,
        seed: 7,
    };

    let mut bitcoin = BitcoinAdapter::new(
        BitcoinParams::default(),
        SimTime::from_secs(10), // compressed 10-min interval
        8,
        40,
        10_000,
        1,
    );
    let mut ethereum = EthereumAdapter::new(
        EthereumParams::default(),
        SimTime::from_secs(1), // compressed 15-s interval
        8,
        100_000_000,
        9,
        1,
    );
    let mut nano = NanoAdapter::new(
        LatticeParams {
            work_difficulty_bits: 2,
            ..Default::default()
        },
        8,
        100_000_000,
        9,
        SimTime::from_millis(200),
        SimTime::from_millis(300),
        1,
    );

    // DLT_TRACE=1 captures workload milestone marks per ledger run.
    let trace = trace::from_env("e07");
    let tracer = trace.tracer();
    trace.mark("workload.run", 0);
    let bitcoin_report = run_workload_traced(&mut bitcoin, &config, tracer);
    trace.mark("workload.run", 1);
    let ethereum_report = run_workload_traced(&mut ethereum, &config, tracer);
    trace.mark("workload.run", 2);
    let nano_report = run_workload_traced(&mut nano, &config, tracer);
    let reports = vec![bitcoin_report, ethereum_report, nano_report];

    println!(
        "\nidentical workload ({} tps offered, {secs}s):",
        config.offered_tps
    );
    let mut table = Table::new([
        "ledger",
        "confirmed txs",
        "ledger bytes",
        "bytes/tx",
        "blocks",
    ]);
    for r in &reports {
        table.row([
            r.ledger.to_string(),
            r.confirmed.to_string(),
            human_bytes(r.ledger_bytes as f64),
            format!("{:.0}", r.bytes_per_tx),
            r.blocks.to_string(),
        ]);
    }
    table.print();

    println!("\nprojection: one year at each system's §VI throughput:");
    let mut table = Table::new([
        "ledger",
        "assumed TPS",
        "bytes/tx (measured)",
        "1-year growth",
    ]);
    let tps = [
        ("bitcoin-like", 4.0),
        ("ethereum-like", 12.0),
        ("nano-like", 105.75),
    ];
    for (r, (name, rate)) in reports.iter().zip(tps) {
        table.row([
            name.to_string(),
            format!("{rate}"),
            format!("{:.0}", r.bytes_per_tx),
            human_bytes(annual_growth_bytes(r.bytes_per_tx, rate)),
        ]);
    }
    table.print();

    // Growth is linear: fit a model from two run lengths and verify.
    let short_cfg = WorkloadConfig {
        duration: SimTime::from_secs(secs / 2),
        ..config
    };
    let mut nano2 = NanoAdapter::new(
        LatticeParams {
            work_difficulty_bits: 2,
            ..Default::default()
        },
        8,
        100_000_000,
        9,
        SimTime::from_millis(200),
        SimTime::from_millis(300),
        1,
    );
    trace.mark("workload.run", 3);
    let short = run_workload_traced(&mut nano2, &short_cfg, tracer);
    let long = &reports[2];
    let model = GrowthModel::fit(
        (short.confirmed as f64, short.ledger_bytes as f64),
        (long.confirmed as f64, long.ledger_bytes as f64),
    );
    println!(
        "\nlinear-growth check (nano-like): fitted {:.0} B/tx, measured {:.0} B/tx",
        model.per_tx_bytes, long.bytes_per_tx
    );

    let paper = paper_reported_sizes();
    println!(
        "\npaper reference points: bitcoin {}, ethereum {}, nano {} at {:.1}M blocks \
         (≈{:.0} B/block on mainnet — our lattice blocks are larger because hash-based \
         signatures replace ed25519; the *growth law* and §V ordering are what carries over).",
        human_bytes(paper.bitcoin_bytes),
        human_bytes(paper.ethereum_bytes),
        human_bytes(paper.nano_bytes),
        paper.nano_blocks / 1e6,
        paper.nano_bytes / paper.nano_blocks
    );
}
