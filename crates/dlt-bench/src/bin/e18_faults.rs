//! e18 — Confirmation confidence under injected network faults
//! (paper §IV-A, §IV-B).
//!
//! Drives both paradigms through the `dlt-sim` fault-injection
//! interceptor: message drop, duplication, reordering, a healed 2-way
//! partition, and Byzantine scheduling (half the network hears
//! everything late). For the blockchain it measures how fork rate and
//! reorg depth — the quantities the 6-block rule is calibrated against
//! — respond to each fault; for the DAG it measures whether weighted
//! voting still reaches quorum, how confirmation latency stretches,
//! and how often an election's leader flips before settling.
//!
//! Every fault schedule is seed-driven and reproducible; the whole
//! report is byte-deterministic. The scenario machinery lives in
//! `dlt_bench::faults` so the dispatch-hash regression tests
//! (`tests/det_sanitizer.rs`) replay the exact same runs and assert
//! their hashes.

use dlt_bench::faults::{run_blockchain_scenario, run_dag_scenario, scenarios, DAG_REPS, MINERS};
use dlt_bench::{banner, print_dispatch_hash, section, smoke, trace, Table};
use dlt_sim::network::NodeId;
use dlt_sim::time::SimTime;

fn blockchain_act(trace: &trace::ExperimentTrace) {
    section("blockchain: fork rate and reorg depth under faults (§IV-A)");
    let miners = MINERS;
    let run = if smoke() {
        SimTime::from_secs(60)
    } else {
        SimTime::from_secs(600)
    };

    let mut table = Table::new([
        "scenario",
        "blocks",
        "stale",
        "fork rate",
        "reorgs",
        "max depth",
        "deepest node",
        "converged",
    ]);

    for (i, scenario) in scenarios().iter().enumerate() {
        trace.mark("sweep.blockchain_scenario", i as u64);
        let sim = run_blockchain_scenario(i, scenario, run, |sim| trace.install(sim));
        print_dispatch_hash(&format!("blockchain/{}", scenario.name), &sim);

        let heights: Vec<u64> = (0..miners)
            .map(|i| sim.node(NodeId(i)).chain().tip_height())
            .collect();
        let stale = sim.node(NodeId(0)).chain().stale_block_count();
        let total_blocks = sim.node(NodeId(0)).chain().block_count();
        let reorgs = sim.metrics().count("node.reorgs");
        let max_depth = sim.metrics().max("node.reorg_depth").unwrap_or(0.0);
        let deepest_node = (0..miners)
            .map(|i| sim.node(NodeId(i)).deepest_reorg())
            .max()
            .unwrap_or(0);
        let settle = heights.iter().min().unwrap().saturating_sub(6);
        let converged = (0..miners)
            .map(|i| sim.node(NodeId(i)).chain().active_at(settle))
            .collect::<Vec<_>>()
            .windows(2)
            .all(|w| w[0] == w[1]);

        table.row([
            scenario.name.to_string(),
            total_blocks.to_string(),
            stale.to_string(),
            format!("{:.3}", stale as f64 / total_blocks as f64),
            reorgs.to_string(),
            format!("{max_depth:.0}"),
            deepest_node.to_string(),
            converged.to_string(),
        ]);
    }
    table.print();
}

fn dag_act(trace: &trace::ExperimentTrace) {
    section("dag: weighted-vote quorum under faults (§IV-B)");
    let reps = DAG_REPS;
    let sends = if smoke() { 3 } else { 10 };
    let run = if smoke() {
        SimTime::from_secs(30)
    } else {
        SimTime::from_secs(120)
    };

    let mut table = Table::new([
        "scenario",
        "published",
        "confirmed (min node)",
        "p50 confirm",
        "forks",
        "vote flips",
        "rollbacks",
    ]);

    for (i, scenario) in scenarios().iter().enumerate() {
        trace.mark("sweep.dag_scenario", i as u64);
        let sim = run_dag_scenario(i, scenario, sends, run, |sim| trace.install(sim));
        print_dispatch_hash(&format!("dag/{}", scenario.name), &sim);

        let published = sends + 1; // the double spend settles to one block
        let confirmed_min = (0..reps)
            .map(|i| sim.node(NodeId(i)).confirmed_count())
            .min()
            .unwrap_or(0);
        let p50 = sim
            .metrics()
            .percentile("dag.confirm_latency_ms", 0.5)
            .unwrap_or(f64::NAN);
        let forks = sim.metrics().count("dag.forks_detected");
        let flips = sim.metrics().count("dag.vote_flips");
        let rollbacks = sim.metrics().count("dag.losing_branches_rolled_back");

        table.row([
            scenario.name.to_string(),
            published.to_string(),
            confirmed_min.to_string(),
            format!("{p50:.1} ms"),
            forks.to_string(),
            flips.to_string(),
            rollbacks.to_string(),
        ]);
    }
    table.print();
}

fn main() {
    let _report = banner(
        "e18",
        "confirmation confidence under injected faults",
        "§IV-A, §IV-B",
    );
    let trace = trace::from_env("e18");
    blockchain_act(&trace);
    dag_act(&trace);
    println!(
        "\nreading: drops and partitions raise the blockchain's fork rate and \
         reorg depth — the confirmation-confidence variables behind §IV-A's \
         6-block rule — while the healed partition still converges after an \
         IBD-style branch exchange. The DAG's weighted vote keeps confirming \
         through the same faults; adversity shows up as stretched confirmation \
         latency and as vote flips on the contested double-spend election, \
         not as lost finality (§IV-B)."
    );
}
