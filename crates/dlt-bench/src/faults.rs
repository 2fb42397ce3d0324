//! The e18 fault-scenario machinery, shared between the `e18_faults`
//! experiment binary and the dispatch-hash regression tests.
//!
//! Both callers must drive byte-for-byte identical simulations — the
//! binary for the printed report, the tests for the dispatch-hash
//! determinism assertion — so the scenario list, the fixture
//! construction, and the run loop live here, parameterized only by the
//! run length and an `install` hook (the binary hangs its tracer on
//! it; the tests pass a no-op).

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

/// Miners in the blockchain act.
pub const MINERS: usize = 4;
/// Representatives in the DAG act.
pub const DAG_REPS: usize = 4;
/// Expected block interval of the blockchain act, in seconds.
pub const MINE_INTERVAL_SECS: f64 = 2.0;

const BITS: u32 = 2;

/// One fault scenario applied to both paradigms.
pub struct Scenario {
    /// Display name (report row label).
    pub name: &'static str,
    /// Builds the interceptor for this scenario, given the node count
    /// and the instant a windowed fault (the partition) heals.
    pub build: fn(u64, usize, SimTime) -> Option<FaultInterceptor>,
    /// Whether this scenario partitions the network until `heal`.
    /// The blockchain act then performs an explicit post-heal branch
    /// exchange (real nodes resynchronise via initial block download,
    /// which the simulated gossip alphabet does not carry), and the
    /// DAG act submits its workload after the heal (votes are flooded
    /// once, not retried, so transactions issued inside a minority
    /// partition would wait forever — real wallets hold and resubmit).
    pub partitions: bool,
}

/// Splits `n` nodes into the two halves used by the partition and
/// Byzantine-lag scenarios.
pub fn halves(n: usize) -> (Vec<NodeId>, Vec<NodeId>) {
    let left: Vec<NodeId> = (0..n / 2).map(NodeId).collect();
    let right: Vec<NodeId> = (n / 2..n).map(NodeId).collect();
    (left, right)
}

/// The six e18 fault scenarios, in report order.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "baseline",
            build: |_, _, _| None,
            partitions: false,
        },
        Scenario {
            name: "drop 10%",
            build: |seed, _, _| Some(FaultInterceptor::new(seed).drop_messages(0.10)),
            partitions: false,
        },
        Scenario {
            name: "drop 30%",
            build: |seed, _, _| Some(FaultInterceptor::new(seed).drop_messages(0.30)),
            partitions: false,
        },
        Scenario {
            name: "partition+heal",
            build: |seed, n, heal| {
                let (left, right) = halves(n);
                Some(
                    FaultInterceptor::new(seed)
                        .partition(n, &[&left, &right])
                        .during(SimTime::ZERO, heal),
                )
            },
            partitions: true,
        },
        Scenario {
            name: "byzantine lag",
            build: |seed, n, _| {
                let (_, right) = halves(n);
                Some(FaultInterceptor::new(seed).lag_nodes(&right, SimTime::from_secs(1)))
            },
            partitions: false,
        },
        Scenario {
            name: "chaos",
            build: |seed, _, _| {
                Some(
                    FaultInterceptor::new(seed)
                        .drop_messages(0.10)
                        .duplicate(0.20, SimTime::from_millis(50))
                        .reorder(0.30, SimTime::from_millis(500)),
                )
            },
            partitions: false,
        },
    ]
}

/// Runs scenario `index` of the blockchain act for `run` simulated
/// time and returns the finished simulation for inspection. `install`
/// fires after the miners are added and before the interceptor — the
/// point where the binary installs its tracer.
pub fn run_blockchain_scenario(
    index: usize,
    scenario: &Scenario,
    run: SimTime,
    install: impl FnOnce(&mut Simulation<NetMsg<UtxoTx>, MinerNode<UtxoTx>>),
) -> Simulation<NetMsg<UtxoTx>, MinerNode<UtxoTx>> {
    let heal = run.div(2);
    let mut sim: Simulation<NetMsg<UtxoTx>, MinerNode<UtxoTx>> = Simulation::new(
        1800 + index as u64,
        LatencyModel::LogNormal {
            median: SimTime::from_millis(150),
            sigma: 0.3,
        },
    );
    for m in 0..MINERS {
        let config = MinerConfig {
            hashrate: 1.0 / (MINERS as f64 * MINE_INTERVAL_SECS),
            mine: true,
            subsidy: 0,
            block_capacity: 1_000_000,
            retarget: RetargetParams {
                target_interval_micros: (MINE_INTERVAL_SECS * 1e6) as u64,
                window: 1_000_000, // effectively static difficulty
                max_step: 4,
            },
            miner_address: Address::from_label(&format!("miner-{m}")),
            coinbase: None,
            mempool_capacity: 10,
        };
        sim.add_node(MinerNode::new(Block::<UtxoTx>::empty_genesis(), config));
    }
    install(&mut sim);
    if let Some(faults) = (scenario.build)(900 + index as u64, MINERS, heal) {
        sim.set_interceptor(faults);
    }

    if scenario.partitions {
        // Run the partition out, then model the IBD resync real
        // nodes perform after a heal: every node offers its active
        // branch to every peer, outside the gossip fabric.
        sim.run_until(heal);
        let exchange_at = heal.saturating_add(SimTime::from_millis(1));
        for from in 0..MINERS {
            let branch: Vec<Block<UtxoTx>> = sim
                .node(NodeId(from))
                .chain()
                .iter_active()
                .filter(|b| !b.header.is_genesis())
                .cloned()
                .collect();
            for to in (0..MINERS).filter(|&to| to != from) {
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
    }
    sim.run_until(run);
    sim.run_until_idle(run + SimTime::from_secs(30));
    sim
}

fn dag_params() -> LatticeParams {
    LatticeParams {
        work_difficulty_bits: BITS,
        ..Default::default()
    }
}

/// A DAG network of `n` representative nodes with equal delegated
/// shares, plus the funded accounts to publish from.
pub fn dag_fixture(seed: u64, n: usize) -> (Simulation<DagMsg, DagNode>, Vec<NanoAccount>) {
    let mut genesis = NanoAccount::from_seed([9u8; 32], 8, BITS);
    let genesis_block = genesis.genesis_block(1_000_000);

    let mut rep_accounts: Vec<NanoAccount> = (0..n)
        .map(|i| NanoAccount::from_seed([10 + i as u8; 32], 8, BITS))
        .collect();
    let share = 1_000_000 / (n as u64 + 1);
    let mut bootstrap = vec![genesis_block.clone()];
    for rep in rep_accounts.iter_mut() {
        let send = genesis.send(rep.address(), share).unwrap();
        let send_hash = send.hash();
        bootstrap.push(send);
        bootstrap.push(rep.receive(send_hash, share).unwrap());
    }

    let mut sim: Simulation<DagMsg, DagNode> = Simulation::new(
        seed,
        LatencyModel::LogNormal {
            median: SimTime::from_millis(80),
            sigma: 0.3,
        },
    );
    for rep_account in rep_accounts.iter().take(n) {
        let config = DagNodeConfig {
            representative: Some(rep_account.address()),
            quorum_fraction: 0.5,
            cement_on_confirm: true,
        };
        let mut node = DagNode::new(dag_params(), genesis_block.clone(), config);
        for block in &bootstrap[1..] {
            node.bootstrap(block.clone());
        }
        sim.add_node(node);
    }
    (sim, rep_accounts)
}

/// Runs scenario `index` of the DAG act — `sends` staggered ordinary
/// sends plus one double spend — for `run` simulated time past the
/// workload start, and returns the finished simulation. `install`
/// fires after the representatives are added and before the
/// interceptor.
pub fn run_dag_scenario(
    index: usize,
    scenario: &Scenario,
    sends: usize,
    run: SimTime,
    install: impl FnOnce(&mut Simulation<DagMsg, DagNode>),
) -> Simulation<DagMsg, DagNode> {
    let reps = DAG_REPS;
    let heal = run.div(2);
    let (mut sim, mut accounts) = dag_fixture(4200 + index as u64, reps);
    install(&mut sim);
    if let Some(faults) = (scenario.build)(700 + index as u64, reps, heal) {
        sim.set_interceptor(faults);
    }

    // Under a partition, neither half holds the 0.5 quorum and
    // votes are flooded once (not retried) — so clients hold
    // their transactions until the heal, as real wallets do.
    let t0 = if scenario.partitions {
        heal
    } else {
        SimTime::ZERO
    };
    // Workload: a chain of ordinary sends from rep 0, staggered …
    let recipient = Address::from_label("shop");
    for s in 0..sends {
        let block = accounts[0].send(recipient, 10).unwrap();
        sim.deliver_at(
            t0.saturating_add(SimTime::from_millis(200 * (s as u64 + 1))),
            NodeId(0),
            NodeId(0),
            DagMsg::publish(block),
        );
    }
    // … plus one double spend: two conflicting sends signed for
    // the same chain position, published at opposite ends.
    let attacker = &mut accounts[reps - 1];
    let mut attacker_fork = attacker.fork_state();
    let honest = attacker.send(Address::from_label("merchant"), 100).unwrap();
    let double = attacker_fork
        .send(Address::from_label("mule"), 100)
        .unwrap();
    let publish_at = t0.saturating_add(SimTime::from_millis(100));
    sim.deliver_at(publish_at, NodeId(0), NodeId(0), DagMsg::publish(honest));
    sim.deliver_at(
        publish_at,
        NodeId(reps - 1),
        NodeId(reps - 1),
        DagMsg::publish(double),
    );
    sim.run_until_idle(run.saturating_add(t0));
    sim
}
