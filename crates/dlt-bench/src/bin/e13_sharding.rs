//! e13 — Sharding (paper §VI-A), measured.
//!
//! Sweeps shard count K and cross-shard traffic fraction f, now by
//! *running* K per-shard ledger simulations through the parallel shard
//! executor (`dlt_sim::shard`) instead of evaluating the analytic fluid
//! model: each shard is a validator (an M/D/1 queue at capacity C) plus
//! gossip replicas, cross-shard transfers are two-phase (debit at home,
//! credit at the destination after an epoch barrier), and inbound
//! credits are prioritised. The analytic ceiling `K·C / (1 + f)`
//! (`dlt-scaling`) stays as the reference column: linear scaling in K,
//! a tax on cross-shard communication — "the downside … is that
//! developers would need to be aware that they are programming in a
//! cross shard environment."
//!
//! `DLT_THREADS=N` runs the shards on N worker threads; the output is
//! byte-identical for every thread count (that determinism is CI-gated).

use dlt_bench::shardnet::{cell_params, run_cell};
use dlt_bench::{banner, smoke, trace, Table};
use dlt_sim::shard::threads_from_env;

fn main() {
    let _report = banner("e13", "sharding", "§VI-A");
    let threads = threads_from_env();
    let smoke = smoke();
    let shard_counts: &[usize] = if smoke {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };
    let fractions = [0.0f64, 0.1, 0.3, 1.0];
    let reference = cell_params(1, 0.0, 0, smoke);

    println!(
        "\nmeasured throughput vs shard count and cross-shard fraction \
         (per-shard capacity {} tx/s, offered {} tx/s per shard, {}s window, 1s epochs):",
        reference.capacity, reference.offered_per_shard, reference.duration
    );
    let mut table = Table::new([
        "shards K",
        "f = 0%",
        "f = 10%",
        "f = 30%",
        "f = 100%",
        "theory f=30%",
    ]);
    // DLT_TRACE=1 marks each (K, f) sweep point with the measured TPS.
    let trace = trace::from_env("e13");
    let mut combined = 0u64;
    for &k in shard_counts {
        trace.mark("sweep.shards", k as u64);
        let mut cells = vec![k.to_string()];
        for (f_index, &f) in fractions.iter().enumerate() {
            // Per-cell seed from (experiment, K, f_index): every sweep
            // point reproduces independently of the rest of the grid.
            let params = cell_params(k, f, f_index, smoke);
            let outcome = run_cell(&params, threads);
            trace.mark("shard.measured_tps", outcome.measured_tps as u64);
            combined = dlt_sim::shard::mix(combined, outcome.combined_hash);
            cells.push(format!("{:.0}", outcome.measured_tps));
        }
        let theory = dlt_scaling::sharding::ShardingParams {
            shards: k,
            per_shard_rate: reference.capacity,
            cross_shard_fraction: 0.3,
        }
        .theoretical_tps();
        cells.push(format!("{theory:.0}"));
        table.row(cells);
    }
    table.print();

    println!("combined_hash[e13]=0x{combined:016x}");

    println!(
        "\nreading: K=1 is §VI's unsharded baseline (\"every node … process[es] \
         every transaction\"); measured throughput scales ~linearly in K and \
         pays the (1+f) cross-shard tax, tracking the analytic ceiling from \
         below (epoch barriers delay the credit phase, so cross-heavy cells \
         drain a little slower than the fluid model). With f=100% every \
         transfer touches two shards and half the capacity evaporates."
    );
}
