//! e06 — DAG vote confirmation (paper §IV-B).
//!
//! Measures Nano-style confirmation: a fork (double send) is injected
//! into a representative network and resolved by weighted voting;
//! confirmation latency is measured for ordinary (non-conflicting)
//! blocks as a function of link latency and representative-weight
//! concentration.

use dlt_bench::{banner, print_dispatch_hash, trace, Table};
use dlt_crypto::keys::Address;
use dlt_dag::account::NanoAccount;
use dlt_dag::lattice::LatticeParams;
use dlt_dag::node::{DagMsg, DagNode, DagNodeConfig};
use dlt_sim::engine::Simulation;
use dlt_sim::latency::LatencyModel;
use dlt_sim::network::NodeId;
use dlt_sim::time::SimTime;

const BITS: u32 = 2;

fn params() -> LatticeParams {
    LatticeParams {
        work_difficulty_bits: BITS,
        ..Default::default()
    }
}

/// Builds an n-rep network whose reps hold the given weight shares (in
/// thousandths of the supply); returns the sim plus the rep accounts.
fn build(
    seed: u64,
    latency_ms: u64,
    shares: &[u64],
) -> (Simulation<DagMsg, DagNode>, Vec<NanoAccount>) {
    let supply = 1_000_000u64;
    let mut genesis = NanoAccount::from_seed([9u8; 32], 8, BITS);
    let genesis_block = genesis.genesis_block(supply);
    let mut reps: Vec<NanoAccount> = (0..shares.len())
        .map(|i| NanoAccount::from_seed([20 + i as u8; 32], 8, BITS))
        .collect();
    let mut bootstrap = Vec::new();
    for (rep, share) in reps.iter_mut().zip(shares) {
        let amount = supply * share / 1000;
        let send = genesis.send(rep.address(), amount).expect("funded");
        let hash = send.hash();
        bootstrap.push(send);
        bootstrap.push(rep.receive(hash, amount).expect("key"));
    }
    let mut sim: Simulation<DagMsg, DagNode> = Simulation::new(
        seed,
        LatencyModel::LogNormal {
            median: SimTime::from_millis(latency_ms),
            sigma: 0.3,
        },
    );
    for rep in &reps {
        let mut node = DagNode::new(
            params(),
            genesis_block.clone(),
            DagNodeConfig {
                representative: Some(rep.address()),
                quorum_fraction: 0.5,
                cement_on_confirm: true,
            },
        );
        for block in &bootstrap {
            node.bootstrap(block.clone());
        }
        sim.add_node(node);
    }
    (sim, reps)
}

fn main() {
    let _report = banner(
        "e06",
        "DAG confirmation by weighted representative vote",
        "§III-B, §IV-B",
    );

    // DLT_TRACE=1 records vote/confirmation traffic for every sweep
    // point of both parts into one event log.
    let trace = trace::from_env("e06");

    // Part 1: confirmation latency of ordinary transfers vs link latency.
    println!("\nconfirmation latency of a non-conflicting send:");
    let mut table = Table::new(["link latency", "confirm latency p50", "p99", "votes cast"]);
    for latency_ms in [20u64, 80, 200] {
        trace.mark("sweep.latency_ms", latency_ms);
        let (mut sim, mut reps) = build(1, latency_ms, &[200, 200, 200, 200, 200]);
        trace.install(&mut sim);
        for i in 0..20 {
            let send = reps[i % 5]
                .send(Address::from_label("shop"), 10)
                .expect("funded");
            let at = SimTime::from_millis(1 + i as u64 * 500);
            sim.deliver_at(at, NodeId(i % 5), NodeId(i % 5), DagMsg::publish(send));
        }
        sim.run_until_idle(SimTime::from_secs(60));
        print_dispatch_hash(&format!("latency-{latency_ms}ms"), &sim);
        let p50 = sim
            .metrics()
            .percentile("dag.confirm_latency_ms", 0.5)
            .unwrap_or(0.0);
        let p99 = sim
            .metrics()
            .percentile("dag.confirm_latency_ms", 0.99)
            .unwrap_or(0.0);
        table.row([
            format!("{latency_ms} ms"),
            format!("{p50:.1} ms"),
            format!("{p99:.1} ms"),
            sim.metrics().count("dag.votes_cast").to_string(),
        ]);
    }
    table.print();

    // Part 2: fork resolution under different weight distributions.
    println!("\ndouble-send fork resolution vs weight concentration:");
    let mut table = Table::new([
        "weight distribution",
        "forks detected",
        "one winner everywhere",
        "rollbacks",
    ]);
    for (label, shares) in [
        ("equal 5×20%", vec![200u64, 200, 200, 200, 200]),
        ("whale 60% + 4×10%", vec![600, 100, 100, 100, 100]),
        ("two blocs 40/40 + 20", vec![400, 400, 200]),
    ] {
        let (mut sim, mut reps) = build(7, 50, &shares);
        trace.mark("sweep.fork_reps", shares.len() as u64);
        trace.install(&mut sim);
        let n = shares.len();
        // The attacker double-sends from a forked account state.
        let attacker_index = n - 1;
        let mut fork_state = reps[attacker_index].fork_state();
        let a = reps[attacker_index]
            .send(Address::from_label("merchant"), 50)
            .expect("funded");
        let b = fork_state
            .send(Address::from_label("laundry"), 50)
            .expect("funded");
        let (a_hash, b_hash) = (a.hash(), b.hash());
        sim.deliver_at(
            SimTime::from_millis(1),
            NodeId(0),
            NodeId(0),
            DagMsg::publish(a),
        );
        sim.deliver_at(
            SimTime::from_millis(1),
            NodeId(n - 1),
            NodeId(n - 1),
            DagMsg::publish(b),
        );
        sim.run_until_idle(SimTime::from_secs(60));
        print_dispatch_hash(label, &sim);
        let a_wins = (0..n)
            .filter(|i| sim.node(NodeId(*i)).is_confirmed(&a_hash))
            .count();
        let b_wins = (0..n)
            .filter(|i| sim.node(NodeId(*i)).is_confirmed(&b_hash))
            .count();
        let consistent = (a_wins == n && b_wins == 0) || (b_wins == n && a_wins == 0);
        table.row([
            label.to_string(),
            sim.metrics().count("dag.forks_detected").to_string(),
            consistent.to_string(),
            sim.metrics()
                .count("dag.losing_branches_rolled_back")
                .to_string(),
        ]);
    }
    table.print();
    println!(
        "\nreading: for a transaction with no issues there is no conflict to \
         vote out (§III-B); confirmation latency is a few vote round-trips, \
         independent of any block interval — unlike §IV-A's depth-based wait."
    );
}
