//! `lattice-settle`: representative `DagNode`s settling a Poisson
//! stream of pre-signed sends, each closed by a receive that its
//! recipient builds once the send is confirmed at its home node
//! (paper Fig. 3), with a share of double spends published at opposite
//! nodes.

use std::time::Instant;

use dlt_crypto::keys::Address;
use dlt_crypto::Digest;
use dlt_dag::account::NanoAccount;
use dlt_dag::block::LatticeBlock;
use dlt_dag::lattice::LatticeParams;
use dlt_dag::node::{DagMsg, DagNode, DagNodeConfig};
use dlt_sim::engine::Simulation;
use dlt_sim::latency::LatencyModel;
use dlt_sim::network::NodeId;
use dlt_sim::rng::SimRng;
use dlt_sim::shard::mix;
use dlt_sim::time::SimTime;

use crate::outcome::{Fold, Latency, Outcome};
use crate::probe::{self, NodeProbe, Timed, Trace};

/// Workload shape.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Representative nodes (full mesh).
    pub nodes: usize,
    /// Honest transfers offered during the load window.
    pub transfers: usize,
    /// Share of additional double spends.
    pub double_spend_share: f64,
    /// Simulated load window, seconds.
    pub window_s: u64,
    /// Simulated drain after the window, seconds.
    pub drain_s: u64,
    /// Sending accounts.
    pub senders: usize,
    /// MSS height of sending accounts (`2^h` signatures each).
    pub sender_height: u32,
    /// Receiving accounts; small chains keep one stalled chain cheap.
    pub receivers: usize,
    /// MSS height of receiving accounts.
    pub receiver_height: u32,
    /// Polling slice, ms (the latency resolution).
    pub slice_ms: u64,
    /// Wallet reaction time: a recipient publishes its receive this
    /// long after it sees the send confirmed at its home node.
    pub receive_delay_ms: u64,
}

const TRANSFERS: usize = 60;

/// The benchmark size.
pub const PARAMS: Params = Params {
    nodes: 16,
    transfers: TRANSFERS,
    double_spend_share: 0.02,
    window_s: 30,
    drain_s: 10,
    // Headroom over the 2^h - 1 blocks each account can sign.
    senders: TRANSFERS.div_ceil(48),
    sender_height: 6,
    receivers: TRANSFERS.div_ceil(12),
    receiver_height: 4,
    slice_ms: 50,
    receive_delay_ms: 250,
};

type Node = Timed<DagNode, DagMsg>;

fn classify(msg: &DagMsg) -> usize {
    match msg {
        DagMsg::Publish(_) => 0,
        DagMsg::Vote(_) => 1,
    }
}

/// A pre-signed honest send.
struct Send {
    at: SimTime,
    home: NodeId,
    block: LatticeBlock,
    hash: Digest,
    receiver: usize,
    amount: u64,
}

/// A double spend: two sends for one account position.
struct DoubleSpend {
    at: SimTime,
    homes: [NodeId; 2],
    blocks: [LatticeBlock; 2],
}

/// Where an honest transfer stands during the run.
#[derive(Clone, Copy, PartialEq)]
enum Stage {
    Unsent,
    AwaitSend,
    AwaitReceive(Digest),
    Done(SimTime),
}

fn account_seed(seed: u64, role: u64, index: u64) -> [u8; 32] {
    let mut out = [0u8; 32];
    out[..8].copy_from_slice(&mix(seed, role).to_be_bytes());
    out[8..16].copy_from_slice(&index.to_be_bytes());
    out
}

/// Runs the workload once.
pub fn run(seed: u64, traced: bool) -> Outcome {
    let p = PARAMS;
    let mut trace = traced.then(Trace::new);
    let setup_start = Instant::now();
    let mut rng = SimRng::new(mix(seed, 0x1a77));
    let params = LatticeParams::default();
    let bits = params.work_difficulty_bits;
    let double_spends = ((p.transfers as f64 * p.double_spend_share).round() as usize).max(1);

    // Keys: genesis, one representative per node, sender and receiver
    // pools, and one attacker account per double spend.
    let keygen_start = Instant::now();
    let funded = p.nodes + p.senders + double_spends;
    let genesis_height = (funded as u32 + 2).next_power_of_two().trailing_zeros();
    let mut genesis = NanoAccount::from_seed(account_seed(seed, 0, 0), genesis_height, bits);
    let mut reps: Vec<NanoAccount> = (0..p.nodes)
        .map(|i| NanoAccount::from_seed(account_seed(seed, 1, i as u64), 1, bits))
        .collect();
    let mut senders: Vec<NanoAccount> = (0..p.senders)
        .map(|i| NanoAccount::from_seed(account_seed(seed, 2, i as u64), p.sender_height, bits))
        .collect();
    let mut receivers: Vec<NanoAccount> = (0..p.receivers)
        .map(|i| NanoAccount::from_seed(account_seed(seed, 3, i as u64), p.receiver_height, bits))
        .collect();
    let mut attackers: Vec<NanoAccount> = (0..double_spends)
        .map(|i| NanoAccount::from_seed(account_seed(seed, 4, i as u64), 1, bits))
        .collect();
    let keygens = 1 + reps.len() + senders.len() + receivers.len() + attackers.len();
    let keygen_ns = probe::ns_since(keygen_start);

    // Funding: genesis hands its whole supply out, every funded account
    // delegates to a node's representative, so representatives hold all
    // voting weight.
    let build_start = Instant::now();
    let rep_share = 1_000_000u64;
    let pool_share = 10_000u64;
    let supply = rep_share * p.nodes as u64 + pool_share * (p.senders + double_spends) as u64;
    let genesis_block = genesis.genesis_block(supply);
    let mut bootstrap = Vec::new();
    let mut fund = |genesis: &mut NanoAccount, account: &mut NanoAccount, rep: Address, amount| {
        account.set_representative(rep);
        let send = genesis
            .send(account.address(), amount)
            .expect("genesis funds");
        let receive = account.receive(send.hash(), amount).expect("fresh key");
        bootstrap.push(send);
        bootstrap.push(receive);
    };
    let rep_addresses: Vec<Address> = reps.iter().map(NanoAccount::address).collect();
    for (i, rep) in reps.iter_mut().enumerate() {
        fund(&mut genesis, rep, rep_addresses[i], rep_share);
    }
    for (i, sender) in senders.iter_mut().enumerate() {
        fund(&mut genesis, sender, rep_addresses[i % p.nodes], pool_share);
    }
    for (i, attacker) in attackers.iter_mut().enumerate() {
        fund(
            &mut genesis,
            attacker,
            rep_addresses[i % p.nodes],
            pool_share,
        );
    }
    for (i, receiver) in receivers.iter_mut().enumerate() {
        receiver.set_representative(rep_addresses[i % p.nodes]);
    }
    let mut blocks_built = 1 + bootstrap.len();

    // Open-loop arrivals: Poisson conditioned on the transfer count.
    let window = SimTime::from_secs(p.window_s);
    let mut times: Vec<u64> = (0..p.transfers)
        .map(|_| rng.below(window.as_micros()))
        .collect();
    times.sort_unstable();
    let mut sent = vec![0usize; p.senders];
    let mut received = vec![0usize; p.receivers];
    let mut inputs = Fold(p.transfers as u64);
    let sends: Vec<Send> = times
        .into_iter()
        .map(|at| {
            let sender = pick_with_room(&mut rng, &mut sent, (1 << p.sender_height) - 1);
            let receiver = pick_with_room(&mut rng, &mut received, 1 << p.receiver_height);
            let amount = 1 + rng.below(10);
            let block = senders[sender]
                .send(receivers[receiver].address(), amount)
                .expect("pool accounts are funded for every send");
            let hash = block.hash();
            inputs.add(hash.prefix_u64());
            inputs.add(at);
            Send {
                at: SimTime::from_micros(at),
                home: NodeId(sender % p.nodes),
                block,
                hash,
                receiver,
                amount,
            }
        })
        .collect();
    let mut conflicts: Vec<DoubleSpend> = attackers
        .iter_mut()
        .map(|attacker| {
            let at = rng.below(window.as_micros());
            let j = rng.below(p.nodes as u64) as usize;
            let mut fork = attacker.fork_state();
            let a = attacker
                .send(Address::from_label("merchant"), pool_share / 2)
                .expect("attacker funded");
            let b = fork
                .send(Address::from_label("attacker-self"), pool_share / 2)
                .expect("attacker funded");
            inputs.add(a.hash().prefix_u64());
            inputs.add(at);
            DoubleSpend {
                at: SimTime::from_micros(at),
                homes: [NodeId(j), NodeId((j + p.nodes / 2) % p.nodes)],
                blocks: [a, b],
            }
        })
        .collect();
    conflicts.sort_by_key(|c| c.at);
    blocks_built += sends.len() + 2 * conflicts.len();
    let build_ns = probe::ns_since(build_start);

    let node_probe =
        traced.then(|| NodeProbe::new(classify as fn(&DagMsg) -> usize, "dag.votes_cast"));
    let mut sim: Simulation<DagMsg, Node> = Simulation::new(
        mix(seed, 1),
        LatencyModel::LogNormal {
            median: SimTime::from_millis(80),
            sigma: 0.3,
        },
    );
    for rep in &rep_addresses {
        let config = DagNodeConfig {
            representative: Some(*rep),
            quorum_fraction: 0.5,
            cement_on_confirm: true,
        };
        let mut node = DagNode::new(params, genesis_block.clone(), config);
        for block in &bootstrap {
            node.bootstrap(block.clone());
        }
        sim.add_node(Timed::new(node, node_probe.clone()));
    }
    let setup_s = setup_start.elapsed().as_secs_f64();
    if let Some(t) = trace.as_mut() {
        t.record_since("setup", setup_start, None);
    }

    // Timed run.
    let run_start = Instant::now();
    let slice = SimTime::from_millis(p.slice_ms);
    let receive_delay = SimTime::from_millis(p.receive_delay_ms);
    let end = SimTime::from_secs(p.window_s + p.drain_s);
    let mut stage = vec![Stage::Unsent; sends.len()];
    let mut in_flight: Vec<usize> = Vec::new();
    let (mut next_send, mut next_conflict) = (0, 0);
    let mut now = SimTime::ZERO;
    let mut slices = Vec::new();
    let mut queue_peak = 0usize;
    let mut receive_ns = 0u64;
    let mut receives = 0usize;
    while now < end {
        now += slice;
        while next_send < sends.len() && sends[next_send].at < now {
            let s = &sends[next_send];
            sim.deliver_at(s.at, s.home, s.home, DagMsg::Publish(s.block.clone()));
            stage[next_send] = Stage::AwaitSend;
            in_flight.push(next_send);
            next_send += 1;
        }
        while next_conflict < conflicts.len() && conflicts[next_conflict].at < now {
            let c = &conflicts[next_conflict];
            for (home, block) in c.homes.iter().zip(&c.blocks) {
                sim.deliver_at(c.at, *home, *home, DagMsg::Publish(block.clone()));
            }
            next_conflict += 1;
        }
        if traced {
            queue_peak = queue_peak.max(sim.pending_events());
            let start = Instant::now();
            sim.run_until(now);
            slices.push((start, Instant::now()));
        } else {
            sim.run_until(now);
        }

        // Poll each open transfer at its recipient's home node.
        in_flight.retain(|&i| {
            let s = &sends[i];
            let home = NodeId(s.receiver % p.nodes);
            match stage[i] {
                Stage::AwaitSend if sim.node(home).node.is_confirmed(&s.hash) => {
                    let start = Instant::now();
                    let receive = receivers[s.receiver]
                        .receive(s.hash, s.amount)
                        .expect("pool accounts have room for every receive");
                    receive_ns += probe::ns_since(start);
                    receives += 1;
                    stage[i] = Stage::AwaitReceive(receive.hash());
                    sim.deliver_at(now + receive_delay, home, home, DagMsg::Publish(receive));
                    true
                }
                Stage::AwaitReceive(hash) if sim.node(home).node.is_confirmed(&hash) => {
                    stage[i] = Stage::Done(now);
                    false
                }
                _ => true,
            }
        });
    }
    let run_end = Instant::now();
    let run_s = run_end.duration_since(run_start).as_secs_f64();

    // Checks and simulated metrics.
    let mut out = Outcome {
        setup_s,
        run_s,
        offered: sends.len() as u64,
        window_s: p.window_s as f64,
        input_digest: inputs.0,
        ..Outcome::default()
    };
    let conserved = sim.nodes().iter().all(|n| {
        let lattice = n.node.lattice();
        lattice.total_supply() == supply && lattice.circulating_total() == supply
    });
    out.check("lattice.supply_conserved_on_every_node", conserved);
    let mut digest = Fold(sim.node(NodeId(0)).node.lattice().block_count() as u64);
    let mut one_winner = true;
    let mut winners = 0u64;
    for c in &conflicts {
        let hashes = [c.blocks[0].hash(), c.blocks[1].hash()];
        let mut winner: Option<usize> = None;
        for n in sim.nodes() {
            let confirmed: Vec<usize> = (0..2)
                .filter(|&k| n.node.is_confirmed(&hashes[k]))
                .collect();
            match confirmed.as_slice() {
                [] => {}
                [k] => {
                    one_winner &= winner.is_none_or(|w| w == *k);
                    winner = Some(*k);
                }
                _ => one_winner = false,
            }
        }
        winners += u64::from(winner.is_some());
        digest.add(winner.map_or(2, |k| k as u64));
    }
    out.check("lattice.double_spend_has_one_winner_everywhere", one_winner);

    let mut samples = Vec::new();
    for (i, s) in sends.iter().enumerate() {
        match stage[i] {
            Stage::Done(at) => {
                samples.push((at - s.at).as_micros() as f64 / 1e3);
                out.confirmed_in_window += u64::from(at <= window);
                digest.add(at.as_micros());
            }
            _ => digest.add(u64::MAX),
        }
    }
    out.failed = sends
        .iter()
        .filter(|s| {
            !sim.nodes()
                .iter()
                .any(|n| n.node.lattice().contains(&s.hash))
        })
        .count() as u64;
    let metrics = sim.metrics();
    for name in [
        "dag.votes_cast",
        "dag.forks_detected",
        "dag.losing_branches_rolled_back",
        "dag.blocks_confirmed",
        "net.messages",
    ] {
        digest.add(metrics.count(name));
    }
    out.digest = digest.0;
    out.sim
        .insert("lattice.double_spends".into(), conflicts.len() as f64);
    out.sim
        .insert("lattice.double_spend_winners".into(), winners as f64);
    out.sim.insert("lattice.receives".into(), receives as f64);
    out.sim.insert(
        "lattice.rejected_blocks".into(),
        metrics.count("dag.blocks_rejected") as f64,
    );
    out.latency = Some(Latency {
        samples_ms: samples,
        resolution_ms: p.slice_ms as f64,
    });

    if let (Some(mut t), Some(node_probe)) = (trace.take(), node_probe) {
        let run = t.record("run", run_start, run_end, None);
        let mut run_ns = 0u64;
        for (start, end) in slices {
            run_ns += end.duration_since(start).as_nanos() as u64;
            t.record("engine.run_until", start, end, Some(run));
        }
        let stats = node_probe.stats.borrow().clone();
        probe::engine_metrics(&mut t, run_ns, metrics.count("net.messages"), &stats);
        t.set("engine.queue_peak", queue_peak as f64);
        t.set("dag_node.publish_msgs", stats.msgs[0] as f64);
        t.set(
            "dag_node.publish_ns_per_msg",
            probe::ratio(stats.ns[0] as f64, stats.msgs[0] as f64),
        );
        t.set("dag_node.vote_msgs", stats.msgs[1] as f64);
        t.set(
            "dag_node.vote_ns_per_msg",
            probe::ratio(stats.ns[1] as f64, stats.msgs[1] as f64),
        );
        t.set(
            "dag_node.useful_frac",
            probe::ratio(
                (stats.useful[0] + stats.useful[1]) as f64,
                (stats.msgs[0] + stats.msgs[1]) as f64,
            ),
        );
        t.set("dag_node.forks", metrics.count("dag.forks_detected") as f64);
        t.set(
            "dag_node.rollbacks",
            metrics.count("dag.losing_branches_rolled_back") as f64,
        );
        t.set(
            "dag_node.votes_per_confirm",
            probe::ratio(
                stats.msgs[1] as f64,
                metrics.count("dag.blocks_confirmed") as f64,
            ),
        );
        t.set("crypto.keygens", keygens as f64);
        t.set(
            "crypto.ms_per_keygen",
            keygen_ns as f64 / 1e6 / keygens as f64,
        );
        t.set("client.blocks_built", (blocks_built + receives) as f64);
        t.set(
            "client.ns_per_block",
            (build_ns + receive_ns) as f64 / (blocks_built + receives) as f64,
        );
        out.trace = Some(t);
    }
    out
}

/// Draws an account uniformly among those with signatures left.
fn pick_with_room(rng: &mut SimRng, used: &mut [usize], capacity: usize) -> usize {
    let open: Vec<usize> = (0..used.len()).filter(|&i| used[i] < capacity).collect();
    assert!(
        !open.is_empty(),
        "account pools are sized for every transfer"
    );
    let pick = open[rng.below(open.len() as u64) as usize];
    used[pick] += 1;
    pick
}
