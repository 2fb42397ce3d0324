//! `chain-gossip`: Bitcoin-like miners flooding pre-signed transfers
//! and blocks over a lossy, reordering full mesh.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Instant;

use dlt_blockchain::block::{Block, BlockHeader, LedgerTx};
use dlt_blockchain::difficulty::RetargetParams;
use dlt_blockchain::node::{MinerConfig, MinerNode, NetMsg};
use dlt_blockchain::utxo::{OutPoint, TxInput, TxOutput, UtxoTx};
use dlt_crypto::keys::{Address, Keypair};
use dlt_crypto::Digest;
use dlt_sim::engine::{Payload, Simulation};
use dlt_sim::fault::FaultInterceptor;
use dlt_sim::latency::LatencyModel;
use dlt_sim::network::NodeId;
use dlt_sim::rng::SimRng;
use dlt_sim::shard::mix;
use dlt_sim::time::SimTime;

use crate::outcome::{Fold, Latency, Outcome};
use crate::probe::{self, FaultStats, NodeProbe, Timed, TimedInterceptor, Trace};

/// Workload shape.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Miner count (full mesh).
    pub nodes: usize,
    /// Transfers offered during the load window.
    pub transfers: usize,
    /// Simulated load window, seconds.
    pub window_s: u64,
    /// Simulated drain after the window, seconds.
    pub drain_s: u64,
    /// Mean block interval, seconds.
    pub block_interval_s: f64,
    /// Offered load as a share of block capacity.
    pub load: f64,
    /// Blocks on top of a transfer's block (inclusive) that confirm it.
    pub depth: u64,
}

/// The benchmark size.
pub const PARAMS: Params = Params {
    nodes: 16,
    transfers: 500,
    window_s: 750,
    drain_s: 120,
    block_interval_s: 5.0,
    load: 0.7,
    depth: 6,
};

type Msg = NetMsg<UtxoTx>;
type Node = Timed<MinerNode<UtxoTx>, Msg>;

fn classify(msg: &Msg) -> usize {
    match msg {
        NetMsg::Tx(_) => 0,
        NetMsg::Block(_) => 1,
    }
}

/// One pre-signed transfer and its scheduled injection.
struct Arrival {
    at: SimTime,
    node: NodeId,
    id: Digest,
    msg: Payload<Msg>,
}

/// Runs the workload once.
pub fn run(seed: u64, traced: bool) -> Outcome {
    let p = PARAMS;
    let mut trace = traced.then(Trace::new);
    let setup_start = Instant::now();
    let mut rng = SimRng::new(mix(seed, 0xc4a1));

    // Keys and signatures: one WOTS one-time key per funded output.
    let keygen_start = Instant::now();
    let keys: Vec<Keypair> = (0..p.transfers)
        .map(|_| Keypair::wots_from_seed(rng.seed32()))
        .collect();
    let keygen_ns = probe::ns_since(keygen_start);
    let funding = UtxoTx {
        inputs: Vec::new(),
        outputs: keys
            .iter()
            .map(|k| TxOutput {
                amount: 1_000,
                recipient: k.address(),
            })
            .collect(),
        declared_fee: 0,
        coinbase_height: 0,
    };
    let funding_id = funding.id();
    let placeholder = Keypair::wots_from_seed([0u8; 32])
        .sign(&Digest::ZERO)
        .expect("fresh one-time key");
    let sign_start = Instant::now();
    let mut txs: Vec<UtxoTx> = Vec::with_capacity(p.transfers);
    for (index, mut key) in keys.into_iter().enumerate() {
        let mut tx = UtxoTx {
            inputs: vec![TxInput {
                outpoint: OutPoint {
                    txid: funding_id,
                    index: index as u32,
                },
                pubkey: key.public_key(),
                signature: placeholder.clone(),
            }],
            outputs: vec![TxOutput {
                amount: 999,
                recipient: Address(Digest::from_bytes(rng.seed32())),
            }],
            declared_fee: 1,
            coinbase_height: 0,
        };
        tx.inputs[0].signature = key.sign(&tx.sighash()).expect("one signature per key");
        txs.push(tx);
    }
    let sign_ns = probe::ns_since(sign_start);

    // Open-loop arrivals: a Poisson process conditioned on exactly
    // `transfers` arrivals in the window (sorted uniform times).
    let window = SimTime::from_secs(p.window_s);
    let mut times: Vec<u64> = (0..p.transfers)
        .map(|_| rng.below(window.as_micros()))
        .collect();
    times.sort_unstable();
    let mut inputs = Fold(p.transfers as u64);
    let arrivals: Vec<Arrival> = txs
        .into_iter()
        .zip(times)
        .map(|(tx, at)| {
            let node = NodeId(rng.below(p.nodes as u64) as usize);
            let id = tx.id();
            inputs.add(id.prefix_u64());
            inputs.add(at);
            inputs.add(node.0 as u64);
            Arrival {
                at: SimTime::from_micros(at),
                node,
                id,
                msg: Payload::new(NetMsg::Tx(tx)),
            }
        })
        .collect();
    let index_of: BTreeMap<Digest, usize> = arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| (a.id, i))
        .collect();

    // Block capacity sized so the offered load is `load` of it.
    let tx_weight = match &*arrivals[0].msg {
        NetMsg::Tx(tx) => tx.weight(),
        NetMsg::Block(_) => unreachable!("arrivals are transfers"),
    };
    let per_block = p.transfers as f64 / p.window_s as f64 * p.block_interval_s / p.load;
    let block_capacity = (per_block.ceil() as u64).max(1) * tx_weight;

    let genesis = Block::new(
        BlockHeader {
            parent: Digest::ZERO,
            height: 0,
            merkle_root: Digest::ZERO,
            state_root: Digest::ZERO,
            receipts_root: Digest::ZERO,
            timestamp_micros: 0,
            difficulty: 1,
            nonce: 0,
            gas_used: 0,
            gas_limit: 0,
            proposer: Address::ZERO,
        },
        vec![funding],
    );
    let node_probe =
        traced.then(|| NodeProbe::new(classify as fn(&Msg) -> usize, "node.blocks_mined"));
    let mut sim: Simulation<Msg, Node> = Simulation::new(
        mix(seed, 1),
        LatencyModel::LogNormal {
            median: SimTime::from_millis(100),
            sigma: 0.3,
        },
    );
    for m in 0..p.nodes {
        let config = MinerConfig {
            hashrate: 1.0 / (p.nodes as f64 * p.block_interval_s),
            mine: true,
            subsidy: 0,
            block_capacity,
            retarget: RetargetParams {
                target_interval_micros: (p.block_interval_s * 1e6) as u64,
                window: 1_000_000, // static difficulty
                max_step: 4,
            },
            miner_address: Address::from_label(&format!("miner-{m}")),
            coinbase: None,
            mempool_capacity: 100_000,
        };
        sim.add_node(Timed::new(
            MinerNode::new(genesis.clone(), config),
            node_probe.clone(),
        ));
    }
    let faults = FaultInterceptor::new(mix(seed, 2))
        .drop_messages(0.05)
        .reorder(0.05, SimTime::from_millis(200));
    let fault_stats = Rc::new(RefCell::new(FaultStats::default()));
    if traced {
        sim.set_interceptor(TimedInterceptor::new(faults, Rc::clone(&fault_stats)));
    } else {
        sim.set_interceptor(faults);
    }
    let setup_s = setup_start.elapsed().as_secs_f64();
    if let Some(t) = trace.as_mut() {
        t.record_since("setup", setup_start, None);
    }

    // Timed run: inject each slice's arrivals, then advance the engine.
    let run_start = Instant::now();
    let slice = SimTime::from_secs(1);
    let end = SimTime::from_secs(p.window_s + p.drain_s);
    let mut next = 0;
    let mut now = SimTime::ZERO;
    let mut slices = Vec::new();
    let mut queue_peak = 0usize;
    let mut mempool_peak = 0usize;
    while now < end {
        now += slice;
        while next < arrivals.len() && arrivals[next].at < now {
            let a = &arrivals[next];
            sim.deliver_at(a.at, a.node, a.node, Payload::clone(&a.msg));
            next += 1;
        }
        if traced {
            queue_peak = queue_peak.max(sim.pending_events());
            let start = Instant::now();
            sim.run_until(now);
            slices.push((start, Instant::now()));
            for node in sim.nodes() {
                mempool_peak = mempool_peak.max(node.node.mempool().len());
            }
        } else {
            sim.run_until(now);
        }
    }
    let run_end = Instant::now();
    let run_s = run_end.duration_since(run_start).as_secs_f64();

    let mut out = analyse(&sim, &p, &arrivals, &index_of, window);
    out.setup_s = setup_s;
    out.run_s = run_s;
    out.input_digest = inputs.0;
    if let (Some(mut t), Some(node_probe)) = (trace.take(), node_probe) {
        let run = t.record("run", run_start, run_end, None);
        let mut run_ns = 0u64;
        for (start, end) in slices {
            run_ns += end.duration_since(start).as_nanos() as u64;
            t.record("engine.run_until", start, end, Some(run));
        }
        let stats = node_probe.stats.borrow().clone();
        probe::engine_metrics(&mut t, run_ns, sim.metrics().count("net.messages"), &stats);
        t.set("engine.queue_peak", queue_peak as f64);
        probe::fault_metrics(&mut t, &fault_stats.borrow());
        t.set("chain_node.tx_msgs", stats.msgs[0] as f64);
        t.set(
            "chain_node.tx_ns_per_msg",
            probe::ratio(stats.ns[0] as f64, stats.msgs[0] as f64),
        );
        t.set("chain_node.block_msgs", stats.msgs[1] as f64);
        t.set(
            "chain_node.block_ns_per_msg",
            probe::ratio(stats.ns[1] as f64, stats.msgs[1] as f64),
        );
        t.set(
            "chain_node.mine_ns_per_block",
            probe::ratio(stats.produce_ns as f64, stats.produced as f64),
        );
        t.set(
            "chain_node.useful_frac",
            probe::ratio(
                (stats.useful[0] + stats.useful[1]) as f64,
                (stats.msgs[0] + stats.msgs[1]) as f64,
            ),
        );
        t.set("chain_node.mempool_peak", mempool_peak as f64);
        t.set(
            "chain_node.stale_blocks",
            sim.node(NodeId(0)).node.chain().stale_block_count() as f64,
        );
        t.set(
            "chain_node.reorgs",
            sim.metrics().count("node.reorgs") as f64,
        );
        t.set("crypto.keygens", p.transfers as f64);
        t.set(
            "crypto.ms_per_keygen",
            keygen_ns as f64 / 1e6 / p.transfers as f64,
        );
        t.set("client.blocks_built", p.transfers as f64);
        t.set("client.ns_per_block", sign_ns as f64 / p.transfers as f64);
        out.trace = Some(t);
    }
    out
}

/// Checks and simulated metrics, computed after the run from the
/// nodes' chain stores.
fn analyse(
    sim: &Simulation<Msg, Node>,
    p: &Params,
    arrivals: &[Arrival],
    index_of: &BTreeMap<Digest, usize>,
    window: SimTime,
) -> Outcome {
    let mut out = Outcome {
        offered: arrivals.len() as u64,
        window_s: p.window_s as f64,
        ..Outcome::default()
    };
    let chain = sim.node(NodeId(0)).node.chain();
    let active = chain.active_chain();
    let timestamp = |height: usize| {
        chain
            .header(&active[height])
            .expect("active blocks are stored")
            .timestamp_micros
    };

    // First inclusion height of each transfer on node 0's active chain.
    // `MinerNode` re-admits a transfer whose gossip arrives after a block
    // that holds it and may mine it again; such repeats are counted
    // (exact per seed) rather than failed, see perfbench/README.md.
    let mut included: Vec<Option<usize>> = vec![None; arrivals.len()];
    let mut repeats = 0u64;
    for (height, id) in active.iter().enumerate().skip(1) {
        let block = chain.block(id).expect("active blocks are stored");
        for tx in &block.txs {
            if let Some(&i) = index_of.get(&tx.id()) {
                match included[i] {
                    Some(_) => repeats += 1,
                    None => included[i] = Some(height),
                }
            }
        }
    }
    out.sim
        .insert("chain.repeat_inclusions".into(), repeats as f64);

    let tip = active.len() - 1;
    let depth = p.depth as usize - 1;
    let mut samples = Vec::new();
    let mut digest = Fold(chain.tip().prefix_u64());
    digest.add(tip as u64);
    for (i, arrival) in arrivals.iter().enumerate() {
        let Some(height) = included[i] else {
            digest.add(u64::MAX);
            continue;
        };
        digest.add(height as u64);
        if height + depth <= tip {
            let confirmed_at = timestamp(height + depth);
            samples.push((confirmed_at - arrival.at.as_micros()) as f64 / 1e3);
            out.confirmed_in_window += u64::from(confirmed_at <= window.as_micros());
        }
    }

    // Lost transfers: on no node's active chain and in no mempool.
    let missing: Vec<&Digest> = arrivals
        .iter()
        .zip(&included)
        .filter(|(_, height)| height.is_none())
        .map(|(a, _)| &a.id)
        .collect();
    if !missing.is_empty() {
        let mut elsewhere: BTreeSet<Digest> = BTreeSet::new();
        for node in sim.nodes() {
            for block in node.node.chain().iter_active() {
                elsewhere.extend(block.txs.iter().map(LedgerTx::id));
            }
        }
        out.failed = missing
            .iter()
            .filter(|id| {
                !elsewhere.contains(id)
                    && !sim.nodes().iter().any(|n| n.node.mempool().contains(id))
            })
            .count() as u64;
    }

    // All nodes agree on the active chain below tip - depth.
    let min_tip = sim
        .nodes()
        .iter()
        .map(|n| n.node.chain().tip_height())
        .min()
        .unwrap_or(0);
    let settled = min_tip.saturating_sub(p.depth);
    let agreed = sim
        .nodes()
        .iter()
        .all(|n| n.node.chain().active_at(settled) == chain.active_at(settled));
    out.check("chain.nodes_agree_below_tip_minus_6", agreed);

    let reorgs = sim.metrics().count("node.reorgs");
    let stale = chain.stale_block_count() as u64;
    digest.add(sim.metrics().count("net.messages"));
    digest.add(repeats);
    digest.add(reorgs);
    digest.add(stale);
    out.digest = digest.0;
    out.sim.insert("chain.height".into(), tip as f64);
    out.sim.insert("chain.stale_blocks".into(), stale as f64);
    out.sim.insert("chain.reorgs".into(), reorgs as f64);
    out.latency = Some(Latency {
        samples_ms: samples,
        resolution_ms: 0.0,
    });
    out
}
