//! Integration: the §IV-A double-spend race on a live miner network.
//!
//! An attacker controlling a fraction of the hash power mines a secret
//! branch while the honest network confirms a payment. With a minority
//! share and a 6-block head start, the attack overwhelmingly fails;
//! with a majority share it overwhelmingly succeeds — the whole point
//! of waiting for confirmations.

use dlt_blockchain::block::Block;
use dlt_blockchain::difficulty::RetargetParams;
use dlt_blockchain::node::{MinerConfig, MinerNode, NetMsg};
use dlt_blockchain::utxo::UtxoTx;
use dlt_crypto::keys::Address;
use dlt_sim::engine::Simulation;
use dlt_sim::fault::FaultInterceptor;
use dlt_sim::latency::LatencyModel;
use dlt_sim::network::NodeId;
use dlt_sim::time::SimTime;

type Net = Simulation<NetMsg<UtxoTx>, MinerNode<UtxoTx>>;

fn config(hashrate: f64) -> MinerConfig<UtxoTx> {
    MinerConfig {
        hashrate,
        mine: true,
        subsidy: 0,
        block_capacity: 1_000_000,
        retarget: RetargetParams {
            target_interval_micros: 1_000_000,
            window: 1_000_000, // static difficulty
            max_step: 4,
        },
        miner_address: Address::ZERO,
        coinbase: None,
        mempool_capacity: 16,
    }
}

/// Runs one race: the attacker (node N-1) is partitioned off, both
/// sides mine for `secret_secs`, the partition heals, and we check
/// whether the attacker's branch displaced the honest chain.
fn attacker_wins(seed: u64, attacker_share: f64, secret_secs: u64) -> bool {
    let honest_nodes = 3usize;
    let total_rate = 1.0; // one block per second network-wide
    let mut sim: Net = Simulation::new(seed, LatencyModel::Fixed(SimTime::from_millis(20)));
    for _ in 0..honest_nodes {
        sim.add_node(MinerNode::new(
            Block::empty_genesis(),
            config(total_rate * (1.0 - attacker_share) / honest_nodes as f64),
        ));
    }
    let attacker = sim.add_node(MinerNode::new(
        Block::empty_genesis(),
        config(total_rate * attacker_share),
    ));

    // The attacker mines privately from the start.
    let honest_ids: Vec<NodeId> = (0..honest_nodes).map(NodeId).collect();
    sim.set_interceptor(
        FaultInterceptor::new(seed)
            .partition(honest_nodes + 1, &[&honest_ids, &[attacker]])
            .during(SimTime::ZERO, SimTime::from_secs(secret_secs)),
    );
    sim.run_until(SimTime::from_secs(secret_secs));

    // Snapshot the honest tip (the "paid" chain). The partition healed
    // at `secret_secs`; the attacker now releases its branch.
    let honest_tip_before = sim.node(NodeId(0)).chain().tip();
    let honest_height = sim.node(NodeId(0)).chain().tip_height();
    let attacker_height = sim.node(attacker).chain().tip_height();

    // Replay the attacker's full chain to the honest nodes (block
    // release — what a real attacker broadcasts).
    let branch: Vec<_> = sim
        .node(attacker)
        .chain()
        .iter_active()
        .cloned()
        .collect::<Vec<_>>();
    for block in branch.into_iter().skip(1) {
        for honest in 0..honest_nodes {
            sim.deliver_at(
                sim.now(),
                attacker,
                NodeId(honest),
                NetMsg::block(block.clone()),
            );
        }
    }
    sim.run_until_idle(sim.now() + SimTime::from_secs(30));

    let honest_tip_after = sim.node(NodeId(0)).chain().tip();

    honest_tip_after != honest_tip_before && attacker_height > honest_height
}

#[test]
fn minority_attacker_rarely_wins() {
    let wins = (0..12).filter(|i| attacker_wins(100 + i, 0.2, 60)).count();
    assert!(
        wins <= 2,
        "a 20% attacker displaced a 60s-confirmed chain {wins}/12 times"
    );
}

#[test]
fn majority_attacker_usually_wins() {
    let wins = (0..12).filter(|i| attacker_wins(200 + i, 0.75, 60)).count();
    assert!(
        wins >= 9,
        "a 75% attacker only displaced the chain {wins}/12 times"
    );
}

#[test]
fn longer_wait_lowers_minority_success() {
    // Same attacker share; the honest chain's head start grows with the
    // wait, so successes must not increase.
    let short_wins = (0..10).filter(|i| attacker_wins(300 + i, 0.35, 15)).count();
    let long_wins = (0..10)
        .filter(|i| attacker_wins(400 + i, 0.35, 120))
        .count();
    assert!(
        long_wins <= short_wins,
        "longer confirmation wait increased attack success ({short_wins} -> {long_wins})"
    );
}
