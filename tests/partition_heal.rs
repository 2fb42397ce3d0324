//! Integration: network partitions and healing on both paradigms.
//!
//! While partitioned, each side of a blockchain network grows its own
//! chain (a macro soft fork, §IV-A); on heal, everyone converges on the
//! most-work branch and the loser's blocks are orphaned. The DAG keeps
//! *disjoint account activity* consistent across a partition — chains
//! only conflict if one account signs on both sides.
//!
//! The partition itself is imposed by the `dlt-sim` fault layer: a
//! [`FaultInterceptor`] partition rule with a `during` window, so the
//! split heals by schedule instead of by mutating the network fabric
//! mid-run.

use dlt_blockchain::block::Block;
use dlt_blockchain::difficulty::RetargetParams;
use dlt_blockchain::node::{MinerConfig, MinerNode, NetMsg};
use dlt_blockchain::utxo::UtxoTx;
use dlt_crypto::keys::Address;
use dlt_dag::account::NanoAccount;
use dlt_dag::lattice::LatticeParams;
use dlt_dag::node::{DagMsg, DagNode, DagNodeConfig};
use dlt_sim::engine::Simulation;
use dlt_sim::fault::FaultInterceptor;
use dlt_sim::latency::LatencyModel;
use dlt_sim::network::NodeId;
use dlt_sim::time::SimTime;

fn miner_config(rate: f64) -> MinerConfig<UtxoTx> {
    MinerConfig {
        hashrate: rate,
        mine: true,
        subsidy: 0,
        block_capacity: 1_000_000,
        retarget: RetargetParams {
            target_interval_micros: 1_000_000,
            window: 1_000_000,
            max_step: 4,
        },
        miner_address: Address::ZERO,
        coinbase: None,
        mempool_capacity: 16,
    }
}

#[test]
fn blockchain_partition_forks_then_converges() {
    let heal = SimTime::from_secs(120);
    let mut sim: Simulation<NetMsg<UtxoTx>, MinerNode<UtxoTx>> =
        Simulation::new(5, LatencyModel::Fixed(SimTime::from_millis(20)));
    // Unequal halves so one side accumulates more work.
    for rate in [0.4, 0.4, 0.1, 0.1] {
        sim.add_node(MinerNode::new(Block::empty_genesis(), miner_config(rate)));
    }
    let left = [NodeId(0), NodeId(1)];
    let right = [NodeId(2), NodeId(3)];
    sim.set_interceptor(
        FaultInterceptor::new(1)
            .partition(4, &[&left, &right])
            .during(SimTime::ZERO, heal),
    );
    sim.run_until(heal);

    let left_tip = sim.node(NodeId(0)).chain().tip();
    let right_tip = sim.node(NodeId(2)).chain().tip();
    assert_ne!(left_tip, right_tip, "partition produced divergent chains");
    let left_height = sim.node(NodeId(0)).chain().tip_height();
    let right_height = sim.node(NodeId(2)).chain().tip_height();
    assert!(left_height > right_height, "heavy side mined more");

    // The window has expired — the split is healed. Cross-pollinate:
    // each side releases its branch.
    for (from, to_side) in [(NodeId(0), right), (NodeId(2), left)] {
        let branch: Vec<_> = sim.node(from).chain().iter_active().cloned().collect();
        for block in branch.into_iter().skip(1) {
            for to in to_side {
                sim.deliver_at(sim.now(), from, to, NetMsg::block(block.clone()));
            }
        }
    }
    sim.run_until_idle(sim.now() + SimTime::from_secs(60));

    // Everyone adopts the heavy side's branch.
    let tips: Vec<_> = (0..4).map(|i| sim.node(NodeId(i)).chain().tip()).collect();
    assert_eq!(tips[2], tips[0], "light side reorged onto the heavy branch");
    assert_eq!(tips[3], tips[0]);
    assert!(sim.metrics().count("node.reorgs") > 0);
    // The light branch became stale blocks, not lost data.
    assert!(sim.node(NodeId(2)).chain().stale_block_count() > 0);
}

#[test]
fn dag_partition_with_disjoint_accounts_merges_cleanly() {
    const BITS: u32 = 2;
    let params = LatticeParams {
        work_difficulty_bits: BITS,
        verify_signatures: true,
        verify_work: true,
    };
    let mut genesis = NanoAccount::from_seed([1u8; 32], 8, BITS);
    let genesis_block = genesis.genesis_block(1_000_000);

    // Two accounts funded before the partition.
    let mut left_account = NanoAccount::from_seed([2u8; 32], 8, BITS);
    let mut right_account = NanoAccount::from_seed([3u8; 32], 8, BITS);
    let mut bootstrap = Vec::new();
    for account in [&mut left_account, &mut right_account] {
        let send = genesis.send(account.address(), 100_000).unwrap();
        let hash = send.hash();
        bootstrap.push(send);
        bootstrap.push(account.receive(hash, 100_000).unwrap());
    }

    let heal = SimTime::from_secs(20);
    let mut sim: Simulation<DagMsg, DagNode> =
        Simulation::new(6, LatencyModel::Fixed(SimTime::from_millis(15)));
    for i in 0..4usize {
        let rep = if i < 2 {
            left_account.address()
        } else {
            right_account.address()
        };
        let mut node = DagNode::new(
            params,
            genesis_block.clone(),
            DagNodeConfig {
                representative: Some(rep),
                quorum_fraction: 0.5,
                cement_on_confirm: false,
            },
        );
        for block in &bootstrap {
            node.bootstrap(block.clone());
        }
        sim.add_node(node);
    }
    sim.set_interceptor(
        FaultInterceptor::new(2)
            .partition(4, &[&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]])
            .during(SimTime::ZERO, heal),
    );

    // Each side's account transacts independently.
    let left_send = left_account
        .send(Address::from_label("left-shop"), 10)
        .unwrap();
    let right_send = right_account
        .send(Address::from_label("right-shop"), 20)
        .unwrap();
    let (lh, rh) = (left_send.hash(), right_send.hash());
    sim.deliver_at(
        SimTime::from_millis(1),
        NodeId(0),
        NodeId(0),
        DagMsg::publish(left_send),
    );
    sim.deliver_at(
        SimTime::from_millis(1),
        NodeId(2),
        NodeId(2),
        DagMsg::publish(right_send),
    );
    sim.run_until_idle(SimTime::from_secs(10));

    // Each side has only its own block.
    assert!(sim.node(NodeId(0)).lattice().contains(&lh));
    assert!(!sim.node(NodeId(0)).lattice().contains(&rh));
    assert!(sim.node(NodeId(2)).lattice().contains(&rh));

    // Let the partition window expire, then republish both blocks
    // network-wide; no conflicts — both blocks coexist because they
    // live on different account chains.
    sim.run_until(heal);
    let left_block = sim.node(NodeId(0)).lattice().block(&lh).unwrap().clone();
    let right_block = sim.node(NodeId(2)).lattice().block(&rh).unwrap().clone();
    for i in 0..4 {
        sim.deliver_at(
            sim.now(),
            NodeId(0),
            NodeId(i),
            DagMsg::publish(left_block.clone()),
        );
        sim.deliver_at(
            sim.now(),
            NodeId(2),
            NodeId(i),
            DagMsg::publish(right_block.clone()),
        );
    }
    sim.run_until_idle(sim.now() + SimTime::from_secs(10));

    for i in 0..4usize {
        let lattice = sim.node(NodeId(i)).lattice();
        assert!(lattice.contains(&lh), "node {i} has the left block");
        assert!(lattice.contains(&rh), "node {i} has the right block");
        assert_eq!(lattice.circulating_total(), 1_000_000);
    }
    assert_eq!(
        sim.metrics().count("dag.forks_detected"),
        0,
        "disjoint account activity cannot conflict"
    );
}
