//! e09 — Scalability and throughput (paper §VI).
//!
//! Reproduces the paper's throughput comparison twice over:
//!
//! 1. *analytically*, from protocol constants (1 MB / 600 s, gas limit
//!    / 15 s, PoS 4 s, Visa 56 000 TPS, Nano's measured reference);
//! 2. *measured*, by saturating the three implementations at a
//!    compressed timescale and scaling the result back.

use dlt_bench::{banner, smoke, trace, Table};
use dlt_blockchain::bitcoin::BitcoinParams;
use dlt_blockchain::ethereum::EthereumParams;
use dlt_core::ledger::{
    run_workload_traced, BitcoinAdapter, EthereumAdapter, NanoAdapter, WorkloadConfig,
};
use dlt_core::throughput::{
    backlog_after, bitcoin_tps_range, blockchain_tps, ethereum_pos_tps, ethereum_tps_range,
    NanoThroughputModel, VISA_TPS,
};
use dlt_dag::lattice::LatticeParams;
use dlt_sim::time::SimTime;

fn main() {
    let _report = banner("e09", "throughput", "§VI");

    println!("\nanalytic rates from protocol constants:");
    let mut table = Table::new(["system", "constants", "TPS"]);
    let (btc_lo, btc_hi) = bitcoin_tps_range();
    let (eth_lo, eth_hi) = ethereum_tps_range();
    table.row([
        "Bitcoin-like PoW".to_string(),
        "1 MB block / 600 s".to_string(),
        format!("{btc_lo:.1} – {btc_hi:.1}"),
    ]);
    table.row([
        "Ethereum-like PoW".to_string(),
        "8M gas / 15 s".to_string(),
        format!("{eth_lo:.1} – {eth_hi:.1}"),
    ]);
    table.row([
        "Ethereum-like PoS".to_string(),
        "8M gas / 4 s".to_string(),
        format!("{:.1}", ethereum_pos_tps(50_000.0)),
    ]);
    let nano = NanoThroughputModel {
        node_processing_bps: 612.0,
        network_bps: 10_000.0,
    };
    let (nano_peak, nano_avg) = NanoThroughputModel::paper_reference();
    table.row([
        "Nano-like DAG".to_string(),
        "protocol-uncapped, hw-bound".to_string(),
        format!(
            "{:.0} model / {nano_peak:.0} peak, {nano_avg:.2} avg (paper)",
            nano.transfers_per_second()
        ),
    ]);
    table.row([
        "Visa (reference)".to_string(),
        "centralised".to_string(),
        format!("{VISA_TPS:.0}"),
    ]);
    table.print();

    // Measured at compressed scale: intervals ÷60, capacities ÷125
    // (Bitcoin) so capacity/interval — the TPS — keeps its shape.
    println!("\nmeasured under saturation (compressed timescale):");
    // DLT_SMOKE compresses the saturation run ~10x for CI and shrinks
    // the actor pools (MSS keygen at 2^12 leaves dominates setup);
    // shape and determinism are preserved, the TPS estimates get
    // noisier.
    let (offered_tps, duration, drain, actors, key_height) = if smoke() {
        (20.0, SimTime::from_secs(12), SimTime::from_secs(6), 6, 9)
    } else {
        (
            60.0,
            SimTime::from_secs(120),
            SimTime::from_secs(60),
            12,
            12,
        )
    };
    let config = WorkloadConfig {
        offered_tps,
        duration,
        drain,
        amount: 5,
        seed: 9,
    };
    let mut bitcoin = BitcoinAdapter::new(
        BitcoinParams {
            max_block_bytes: 24_000, // ~10 txs per block
            ..BitcoinParams::default()
        },
        SimTime::from_secs(10),
        actors,
        if smoke() { 100 } else { 200 },
        10_000,
        2,
    );
    let mut ethereum = EthereumAdapter::new(
        EthereumParams {
            initial_gas_limit: 800_000, // ~38 transfers per block
            ..EthereumParams::default()
        },
        SimTime::from_secs(1),
        actors,
        1_000_000_000,
        key_height,
        2,
    );
    let mut nano = NanoAdapter::new(
        LatticeParams {
            work_difficulty_bits: 2,
            verify_signatures: true,
            verify_work: true,
        },
        actors,
        1_000_000_000,
        key_height,
        SimTime::from_millis(100),
        SimTime::from_millis(200),
        2,
    );

    // DLT_TRACE=1 captures workload milestone marks (offered /
    // confirmed / rejected) for all three runs into one event log.
    let trace = trace::from_env("e09");
    let mut tracer = trace.tracer();
    trace.mark("workload.run", 0);
    let bitcoin_report = run_workload_traced(&mut bitcoin, &config, tracer.as_deref_mut());
    trace.mark("workload.run", 1);
    let ethereum_report = run_workload_traced(&mut ethereum, &config, tracer.as_deref_mut());
    trace.mark("workload.run", 2);
    let nano_report = run_workload_traced(&mut nano, &config, tracer.as_deref_mut());
    let reports = [
        ("bitcoin-like (1x)", bitcoin_report),
        ("ethereum-like (1x)", ethereum_report),
        ("nano-like", nano_report),
    ];
    let mut table = Table::new([
        "ledger",
        "offered",
        "confirmed",
        "confirmed TPS",
        "backlog left",
        "blocks",
    ]);
    for (name, r) in &reports {
        table.row([
            name.to_string(),
            r.offered.to_string(),
            r.confirmed.to_string(),
            format!("{:.2}", r.confirmed_tps),
            r.backlog.to_string(),
            r.blocks.to_string(),
        ]);
    }
    table.print();

    let btc_measured = reports[0].1.confirmed_tps;
    let eth_measured = reports[1].1.confirmed_tps;
    let nano_measured = reports[2].1.confirmed_tps;
    println!(
        "\nshape check under identical offered load: nano ({nano_measured:.1}, absorbs \
         everything) ≥ ethereum ({eth_measured:.1}, gas-capped) > bitcoin \
         ({btc_measured:.1}, interval+size-capped) — the §VI ordering."
    );

    println!("\npending-backlog growth at the paper's real-world rates:");
    let mut table = Table::new([
        "system",
        "offered TPS",
        "capacity TPS",
        "backlog after 1 day",
    ]);
    for (name, offered, capacity) in [
        (
            "Bitcoin-like",
            9.0,
            blockchain_tps(1_000_000.0, 400.0, 600.0),
        ),
        (
            "Ethereum-like",
            16.0,
            blockchain_tps(8_000_000.0, 50_000.0, 15.0),
        ),
    ] {
        table.row([
            name.to_string(),
            format!("{offered:.1}"),
            format!("{capacity:.1}"),
            format!("{:.0}", backlog_after(offered, capacity, 86_400.0)),
        ]);
    }
    table.print();
    println!(
        "the paper's observed backlogs (186,951 pending on Bitcoin, 22,473 on \
         Ethereum) are exactly this mechanism."
    );
}
