//! Integration: adversarial fault schedules via the `dlt-sim`
//! [`FaultInterceptor`], on both paradigms.
//!
//! These scenarios drive the fault layer harder than the unit tests in
//! `dlt-sim::fault`: a lossy partitioned blockchain that must still
//! converge after the heal with a bounded reorg (§IV-A), a DAG whose
//! voting quorum tolerates a Byzantine-late half of the network, and a
//! double-spend race fought under 30% message loss (§IV-B). All faults
//! are seed-driven: every run of this file sees the identical schedule.

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

fn miner_config(hashrate: f64) -> MinerConfig<UtxoTx> {
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

/// A lossy, partitioned blockchain: 30% of messages are dropped *and*
/// the network is split into unequal halves for the first 60 seconds.
/// After the heal the nodes exchange branches (the IBD resync real
/// nodes perform) and must converge on the heavy half's chain with the
/// reorg depth bounded by what the light half could have mined.
#[test]
fn blockchain_converges_after_lossy_partition() {
    let heal = SimTime::from_secs(60);
    let mut sim: Simulation<NetMsg<UtxoTx>, MinerNode<UtxoTx>> =
        Simulation::new(11, LatencyModel::Fixed(SimTime::from_millis(20)));
    // Heavy half mines 70% of the blocks, light half 30%.
    for rate in [0.35, 0.35, 0.15, 0.15] {
        sim.add_node(MinerNode::new(Block::empty_genesis(), miner_config(rate)));
    }
    let left = [NodeId(0), NodeId(1)];
    let right = [NodeId(2), NodeId(3)];
    sim.set_interceptor(
        FaultInterceptor::new(7)
            .drop_messages(0.3)
            .during(SimTime::ZERO, heal)
            .partition(4, &[&left, &right])
            .during(SimTime::ZERO, heal),
    );

    sim.run_until(heal);
    let heights_at_heal: Vec<u64> = (0..4usize)
        .map(|i| sim.node(NodeId(i)).chain().tip_height())
        .collect();
    let left_height = heights_at_heal[0];
    let right_height = heights_at_heal[2];
    assert_ne!(
        sim.node(NodeId(0)).chain().tip(),
        sim.node(NodeId(2)).chain().tip(),
        "partition produced divergent chains"
    );
    assert!(left_height > right_height, "heavy side mined more");

    // Heal-time resync: every node offers its active branch to every
    // peer. `deliver_at` bypasses both the network and the interceptor,
    // which is the point — IBD is a reliable fetch, not gossip.
    let exchange_at = heal.saturating_add(SimTime::from_millis(1));
    for from in 0..4usize {
        let branch: Vec<Block<UtxoTx>> = sim
            .node(NodeId(from))
            .chain()
            .iter_active()
            .filter(|b| !b.header.is_genesis())
            .cloned()
            .collect();
        for to in (0..4usize).filter(|&to| to != from) {
            for block in &branch {
                sim.deliver_at(
                    exchange_at,
                    NodeId(from),
                    NodeId(to),
                    NetMsg::block(block.clone()),
                );
            }
        }
    }
    sim.run_until(SimTime::from_secs(90));
    sim.run_until_idle(SimTime::from_secs(120));

    // The settled prefix (6 blocks below the lowest tip, §IV-A) is
    // identical everywhere; the light side reorged onto the heavy
    // branch and kept its own blocks as stale data.
    let settle = (0..4usize)
        .map(|i| sim.node(NodeId(i)).chain().tip_height())
        .min()
        .unwrap()
        .saturating_sub(6);
    let prefix: Vec<_> = (0..4usize)
        .map(|i| sim.node(NodeId(i)).chain().active_at(settle))
        .collect();
    assert!(prefix[0].is_some(), "chain grew past the settled prefix");
    assert!(
        prefix.windows(2).all(|w| w[0] == w[1]),
        "all nodes agree on the settled prefix"
    );
    assert!(
        sim.metrics().count("node.reorgs") > 0,
        "healing forced reorgs"
    );
    let deepest = (0..4usize)
        .map(|i| sim.node(NodeId(i)).deepest_reorg())
        .max()
        .unwrap();
    assert!(deepest >= 1, "the losing half rewound at least one block");
    // 30% loss also forks nodes *within* each half, so the deepest
    // rewind can exceed the light half's branch — but it can never
    // exceed the longest chain anyone held when the branches met.
    let longest_at_heal = *heights_at_heal.iter().max().unwrap();
    assert!(
        deepest <= longest_at_heal,
        "reorg depth ({deepest}) bounded by the longest pre-heal chain ({longest_at_heal})"
    );
    assert!(
        sim.node(NodeId(2)).chain().stale_block_count() > 0,
        "the light branch survives as stale blocks"
    );
}

const BITS: u32 = 2;

fn dag_params() -> LatticeParams {
    LatticeParams {
        work_difficulty_bits: BITS,
        ..Default::default()
    }
}

/// `n` representative nodes with equal delegated shares, plus the
/// funded accounts (index i delegates to rep i).
fn dag_network(
    seed: u64,
    n: usize,
    quorum_fraction: f64,
) -> (Simulation<DagMsg, DagNode>, Vec<NanoAccount>) {
    let mut genesis = NanoAccount::from_seed([9u8; 32], 8, BITS);
    let genesis_block = genesis.genesis_block(1_000_000);
    let mut rep_accounts: Vec<NanoAccount> = (0..n)
        .map(|i| NanoAccount::from_seed([10 + i as u8; 32], 8, BITS))
        .collect();
    let share = 1_000_000 / (n as u64 + 1);
    let mut bootstrap = Vec::new();
    for rep in rep_accounts.iter_mut() {
        let send = genesis.send(rep.address(), share).unwrap();
        let send_hash = send.hash();
        bootstrap.push(send);
        bootstrap.push(rep.receive(send_hash, share).unwrap());
    }

    let mut sim: Simulation<DagMsg, DagNode> =
        Simulation::new(seed, LatencyModel::Fixed(SimTime::from_millis(20)));
    for rep_account in rep_accounts.iter().take(n) {
        let config = DagNodeConfig {
            representative: Some(rep_account.address()),
            quorum_fraction,
            cement_on_confirm: true,
        };
        let mut node = DagNode::new(dag_params(), genesis_block.clone(), config);
        for block in &bootstrap {
            node.bootstrap(block.clone());
        }
        sim.add_node(node);
    }
    (sim, rep_accounts)
}

/// Byzantine scheduling: half the representatives hear every message a
/// full second late. The 0.5 quorum (3 of 4 reps at 200k weight each)
/// cannot be met by the prompt half alone, so every confirmation has
/// to wait for a delayed vote — quorum still lands, but confirmation
/// latency absorbs the adversarial delay.
#[test]
fn dag_quorum_tolerates_byzantine_late_half() {
    let reps = 4usize;
    let (mut sim, mut accounts) = dag_network(21, reps, 0.5);
    sim.set_interceptor(
        FaultInterceptor::new(3).lag_nodes(&[NodeId(2), NodeId(3)], SimTime::from_secs(1)),
    );

    let sends = 3usize;
    let recipient = Address::from_label("shop");
    for s in 0..sends {
        let block = accounts[0].send(recipient, 10).unwrap();
        sim.deliver_at(
            SimTime::from_millis(500 * (s as u64 + 1)),
            NodeId(0),
            NodeId(0),
            DagMsg::publish(block),
        );
    }
    sim.run_until_idle(SimTime::from_secs(60));

    for i in 0..reps {
        assert!(
            sim.node(NodeId(i)).confirmed_count() >= sends,
            "node {i} confirmed all sends despite the late half"
        );
    }
    // The prompt half (nodes 0, 1) measures the adversarial delay in
    // full: their quorum waits on a vote that arrives a second late.
    // The lagged half sees everything uniformly shifted, so *its*
    // local latency stays small — the max captures the damage, the
    // mean still sits well above the ~40ms fault-free baseline.
    let max_latency = sim
        .metrics()
        .max("dag.confirm_latency_ms")
        .expect("confirmations were recorded");
    let mean_latency = sim.metrics().mean("dag.confirm_latency_ms").unwrap();
    assert!(
        max_latency >= 900.0,
        "worst confirmation ({max_latency:.1} ms) absorbs the 1s Byzantine lag"
    );
    assert!(
        mean_latency >= 250.0,
        "mean confirmation ({mean_latency:.1} ms) sits far above the fault-free baseline"
    );
    assert!(sim.metrics().count("dag.votes_cast") >= reps as u64);
}

/// A double-spend race fought under 30% message loss: two conflicting
/// sends for the same chain position, published at opposite ends of a
/// 5-rep network. Weighted voting must still settle on exactly one
/// branch everywhere, flipping the election leader at least once along
/// the way and rolling the losing branch back wherever it was adopted
/// first.
#[test]
fn dag_double_spend_settles_one_winner_under_loss() {
    let reps = 5usize;
    // 0.4 quorum: 400_000 of the 1M supply. Each rep holds 166_666, so
    // three prompt votes (499_998) clear it even when drops thin the
    // vote flood.
    let (mut sim, mut accounts) = dag_network(31, reps, 0.4);
    sim.set_interceptor(FaultInterceptor::new(17).drop_messages(0.3));

    let attacker = &mut accounts[reps - 1];
    let mut attacker_fork = attacker.fork_state();
    let honest = attacker.send(Address::from_label("merchant"), 100).unwrap();
    let double = attacker_fork
        .send(Address::from_label("mule"), 100)
        .unwrap();
    let (honest_hash, double_hash) = (honest.hash(), double.hash());
    sim.deliver_at(
        SimTime::from_millis(1),
        NodeId(0),
        NodeId(0),
        DagMsg::publish(honest),
    );
    sim.deliver_at(
        SimTime::from_millis(1),
        NodeId(reps - 1),
        NodeId(reps - 1),
        DagMsg::publish(double),
    );
    sim.run_until_idle(SimTime::from_secs(60));

    let confirmed_honest = (0..reps)
        .filter(|i| sim.node(NodeId(*i)).is_confirmed(&honest_hash))
        .count();
    let confirmed_double = (0..reps)
        .filter(|i| sim.node(NodeId(*i)).is_confirmed(&double_hash))
        .count();
    assert!(
        (confirmed_honest == reps && confirmed_double == 0)
            || (confirmed_double == reps && confirmed_honest == 0),
        "one winner network-wide (honest: {confirmed_honest}, double: {confirmed_double})"
    );
    let winner = if confirmed_honest == reps {
        honest_hash
    } else {
        double_hash
    };
    for i in 0..reps {
        assert!(
            sim.node(NodeId(i)).lattice().contains(&winner),
            "node {i} adopted the winning branch"
        );
    }
    assert!(
        sim.metrics().count("dag.forks_detected") > 0,
        "the conflicting publishes registered as a fork"
    );
    assert!(
        sim.metrics().count("dag.vote_flips") >= 1,
        "the contested election flipped leaders at least once"
    );
    assert!(
        sim.metrics().count("dag.losing_branches_rolled_back") >= 1,
        "some node rolled back its first-seen losing branch"
    );
}
