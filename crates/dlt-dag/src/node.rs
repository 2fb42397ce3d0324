//! A Nano-like network node for the discrete-event simulator
//! (paper §III-B, §IV-B).
//!
//! Nodes flood-relay published blocks. A node configured as a
//! *representative* votes on every block it accepts ("a representative
//! that sees a new transaction forwards the transaction with its
//! vote-signature attached … the network automatically broadcasts
//! consensus information, while the transaction is making its way
//! through the network"), and votes for the **first-seen** candidate
//! when it detects a fork. A block is *confirmed* once votes reaching
//! the quorum accumulate (§IV-B: "a majority vote for the send and
//! receive transactions"); nodes that adopted the losing side of a fork
//! roll it back and adopt the winner. Confirmed blocks are cemented.

use std::collections::{BTreeMap, BTreeSet};

use dlt_crypto::keys::Address;
use dlt_crypto::Digest;
use dlt_sim::engine::{Context, Payload, SimNode};
use dlt_sim::metrics::{CounterId, Metrics, SeriesId};
use dlt_sim::network::NodeId;

use crate::block::LatticeBlock;
use crate::lattice::{Lattice, LatticeError, LatticeParams};
use crate::voting::{ElectionManager, ElectionRoot, Vote};

/// The gossip alphabet of the DAG network.
#[derive(Debug, Clone)]
pub enum DagMsg {
    /// A published lattice block.
    Publish(LatticeBlock),
    /// A representative's weighted vote.
    Vote(Vote),
}

impl DagMsg {
    /// A `Publish` announcing `block`.
    pub fn publish(block: LatticeBlock) -> Self {
        DagMsg::Publish(block)
    }
}

/// Node configuration.
#[derive(Debug, Clone)]
pub struct DagNodeConfig {
    /// The representative identity this node votes as, if any. Voting
    /// weight is whatever the ledger currently delegates to it.
    pub representative: Option<Address>,
    /// Quorum fraction of total supply weight (0.5 = paper's majority).
    pub quorum_fraction: f64,
    /// Cement blocks on confirmation (§IV-B block-cementing).
    pub cement_on_confirm: bool,
}

impl Default for DagNodeConfig {
    fn default() -> Self {
        DagNodeConfig {
            representative: None,
            quorum_fraction: 0.5,
            cement_on_confirm: true,
        }
    }
}

/// Pre-interned metric handles for the DAG node's hot paths,
/// registered once in `on_start` (interning is idempotent, so all
/// nodes share the same ids in the simulation's metrics sink).
#[derive(Debug, Clone, Copy)]
struct DagMetrics {
    votes_cast: CounterId,
    blocks_accepted: CounterId,
    forks_detected: CounterId,
    gap_buffered: CounterId,
    blocks_rejected: CounterId,
    losing_branches_rolled_back: CounterId,
    confirmed_unadoptable: CounterId,
    blocks_confirmed: CounterId,
    vote_flips: CounterId,
    confirm_latency_ms: SeriesId,
}

impl DagMetrics {
    fn register(metrics: &mut Metrics) -> Self {
        DagMetrics {
            votes_cast: metrics.counter("dag.votes_cast"),
            blocks_accepted: metrics.counter("dag.blocks_accepted"),
            forks_detected: metrics.counter("dag.forks_detected"),
            gap_buffered: metrics.counter("dag.gap_buffered"),
            blocks_rejected: metrics.counter("dag.blocks_rejected"),
            losing_branches_rolled_back: metrics.counter("dag.losing_branches_rolled_back"),
            confirmed_unadoptable: metrics.counter("dag.confirmed_unadoptable"),
            blocks_confirmed: metrics.counter("dag.blocks_confirmed"),
            vote_flips: metrics.counter("dag.vote_flips"),
            confirm_latency_ms: metrics.series("dag.confirm_latency_ms"),
        }
    }
}

/// A full DAG node: lattice, elections, relay and (optionally) voting.
pub struct DagNode {
    lattice: Lattice,
    elections: ElectionManager,
    config: DagNodeConfig,
    /// Gossip dedup for published blocks (vote dedup lives in the
    /// elections: [`ElectionManager::first_hearing`]).
    seen: BTreeSet<Digest>,
    /// Publishes whose `previous` has not arrived yet, keyed by that gap.
    gap_buffer: BTreeMap<Digest, Vec<Payload<DagMsg>>>,
    /// Candidate block bodies by hash, as the shared payload they
    /// arrived in, so a losing node can adopt the confirmed winner it
    /// rejected earlier without keeping its own copy of every body.
    candidates: BTreeMap<Digest, Payload<DagMsg>>,
    /// Block arrival times (µs) for confirmation-latency metrics.
    arrival_micros: BTreeMap<Digest, u64>,
    /// Locally confirmed blocks.
    confirmed: BTreeSet<Digest>,
    /// Metric handles, registered in `on_start`.
    metrics: Option<DagMetrics>,
}

impl DagNode {
    /// Creates a node over a copy of the shared genesis ledger.
    pub fn new(params: LatticeParams, genesis: LatticeBlock, config: DagNodeConfig) -> Self {
        DagNode {
            lattice: Lattice::new(params, genesis),
            elections: ElectionManager::new(config.quorum_fraction),
            config,
            seen: BTreeSet::new(),
            gap_buffer: BTreeMap::new(),
            candidates: BTreeMap::new(),
            arrival_micros: BTreeMap::new(),
            confirmed: BTreeSet::new(),
            metrics: None,
        }
    }

    /// The node's metric handles (registered in `on_start`).
    fn handles(&self) -> DagMetrics {
        self.metrics.expect("metric handles registered in on_start")
    }

    /// This node's ledger view.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// Installs a pre-network block directly into the local ledger
    /// (initial distribution / bootstrap state shared by all nodes
    /// before the simulation starts).
    ///
    /// # Panics
    ///
    /// Panics if the block does not apply cleanly — bootstrap state
    /// must be valid by construction.
    pub fn bootstrap(&mut self, block: LatticeBlock) {
        let hash = block.hash();
        self.lattice
            .process(block)
            .expect("bootstrap blocks are valid");
        self.seen.insert(hash);
    }

    /// This node's election state.
    pub fn elections(&self) -> &ElectionManager {
        &self.elections
    }

    /// Whether this node has confirmed a block.
    pub fn is_confirmed(&self, hash: &Digest) -> bool {
        self.confirmed.contains(hash)
    }

    /// Number of blocks confirmed locally.
    pub fn confirmed_count(&self) -> usize {
        self.confirmed.len()
    }

    fn election_root(block: &LatticeBlock) -> ElectionRoot {
        (block.account, block.previous)
    }

    /// Casts this node's representative vote (if it is one) and
    /// gossips it.
    fn cast_vote(&mut self, ctx: &mut Context<'_, DagMsg>, root: ElectionRoot, candidate: Digest) {
        let Some(rep) = self.config.representative else {
            return;
        };
        let weight = self.lattice.weight(&rep);
        if weight == 0 {
            return;
        }
        let vote = Vote {
            representative: rep,
            root,
            candidate,
        };
        self.handle_vote(ctx, vote);
        ctx.broadcast(DagMsg::Vote(vote));
        let m = self.handles();
        ctx.metrics().inc(m.votes_cast);
    }

    /// Processes a gossiped `Publish`. Takes the shared payload so the
    /// flood relay re-shares the sender's allocation instead of
    /// cloning the block per peer.
    fn handle_publish(&mut self, ctx: &mut Context<'_, DagMsg>, msg: Payload<DagMsg>) {
        let DagMsg::Publish(block) = &*msg else {
            return;
        };
        let hash = block.hash();
        if !self.seen.insert(hash) {
            return;
        }
        let m = self.handles();
        self.arrival_micros.insert(hash, ctx.now().as_micros());
        self.candidates.insert(hash, Payload::clone(&msg));
        ctx.broadcast(Payload::clone(&msg));

        let root = Self::election_root(block);
        let gap_parent = block.previous;
        match self.lattice.process(block.clone()) {
            Ok(_) => {
                ctx.metrics().inc(m.blocks_accepted);
                self.cast_vote(ctx, root, hash);
                // A gap behind this block may now be fillable.
                if let Some(waiting) = self.gap_buffer.remove(&hash) {
                    for held in waiting {
                        if let DagMsg::Publish(block) = &*held {
                            self.seen.remove(&block.hash()); // reprocess fully
                        }
                        self.handle_publish(ctx, held);
                    }
                }
            }
            Err(LatticeError::Fork { existing }) => {
                // First-seen voting policy: back the incumbent.
                ctx.metrics().inc(m.forks_detected);
                ctx.trace_mark("dag.fork_detected", 1);
                self.cast_vote(ctx, root, existing);
            }
            // Held until the missing block is accepted, which replays it.
            Err(err @ (LatticeError::GapPrevious | LatticeError::GapSource { .. })) => {
                ctx.metrics().inc(m.gap_buffered);
                let gap = match err {
                    LatticeError::GapSource { source } => source,
                    _ => gap_parent,
                };
                self.gap_buffer
                    .entry(gap)
                    .or_default()
                    .push(Payload::clone(&msg));
            }
            Err(LatticeError::Duplicate) => {}
            Err(_) => {
                ctx.metrics().inc(m.blocks_rejected);
            }
        }
        // The election for this position may have concluded before the
        // winning block's body reached us — apply it now that we hold
        // the body.
        if self.elections.is_confirmed(&root, &hash) && !self.is_confirmed(&hash) {
            self.apply_confirmation(ctx, root, hash);
        }
    }

    fn handle_vote(&mut self, ctx: &mut Context<'_, DagMsg>, vote: Vote) {
        let weight = self.lattice.weight(&vote.representative);
        let total = self.lattice.total_supply();
        let flips_before = self.elections.vote_flips();
        let winner = self.elections.tally(vote, weight, total);
        let flips = self.elections.vote_flips() - flips_before;
        if flips > 0 {
            let m = self.handles();
            ctx.metrics().add(m.vote_flips, flips);
            ctx.trace_mark("dag.vote_flip", flips);
        }
        if let Some(winner) = winner {
            self.apply_confirmation(ctx, vote.root, winner);
        }
    }

    /// Adopts and cements a confirmed winner, rolling back a locally
    /// adopted losing branch if necessary.
    fn apply_confirmation(
        &mut self,
        ctx: &mut Context<'_, DagMsg>,
        root: ElectionRoot,
        winner: Digest,
    ) {
        let m = self.handles();
        if !self.lattice.contains(&winner) {
            // We adopted the loser (or nothing). Roll back whatever
            // occupies the disputed position and install the winner.
            let (account, previous) = root;
            let occupier = self.lattice.account(&account).and_then(|_| {
                // Find the block at this position: the successor of
                // `previous` on the account chain.
                self.lattice
                    .chain_of(&account)
                    .iter()
                    .find(|b| b.previous == previous)
                    .map(|b| b.hash())
            });
            if let Some(loser) = occupier {
                if self.lattice.rollback(&loser).is_ok() {
                    ctx.metrics().inc(m.losing_branches_rolled_back);
                }
            }
            let Some(DagMsg::Publish(block)) = self.candidates.get(&winner).map(|msg| &**msg)
            else {
                return; // body unknown; confirmation applies on arrival
            };
            if self.lattice.process(block.clone()).is_err() {
                // Can't adopt yet (e.g. deeper gaps); leave it — the
                // block will be re-offered by gossip.
                ctx.metrics().inc(m.confirmed_unadoptable);
                return;
            }
        }
        if self.confirmed.insert(winner) {
            ctx.metrics().inc(m.blocks_confirmed);
            ctx.trace_mark("dag.block_confirmed", self.confirmed.len() as u64);
            if let Some(arrived) = self.arrival_micros.get(&winner) {
                let latency_ms = (ctx.now().as_micros().saturating_sub(*arrived)) as f64 / 1e3;
                ctx.metrics().record(m.confirm_latency_ms, latency_ms);
            }
            if self.config.cement_on_confirm {
                let _ = self.lattice.cement(&winner);
            }
        }
    }
}

impl SimNode<DagMsg> for DagNode {
    fn on_start(&mut self, ctx: &mut Context<'_, DagMsg>) {
        self.metrics = Some(DagMetrics::register(ctx.metrics()));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, DagMsg>, _from: NodeId, msg: Payload<DagMsg>) {
        match &*msg {
            DagMsg::Publish(_) => self.handle_publish(ctx, msg),
            DagMsg::Vote(vote) => {
                let vote = *vote;
                if !self.elections.first_hearing(&vote) {
                    return;
                }
                // Relay the shared payload (no per-peer deep clone).
                ctx.broadcast(Payload::clone(&msg));
                self.handle_vote(ctx, vote);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::NanoAccount;
    use dlt_sim::engine::Simulation;
    use dlt_sim::latency::LatencyModel;
    use dlt_sim::time::SimTime;

    const BITS: u32 = 2;

    fn params() -> LatticeParams {
        LatticeParams {
            work_difficulty_bits: BITS,
            verify_signatures: true,
            verify_work: true,
        }
    }

    type Net = Simulation<DagMsg, DagNode>;

    /// A network of `reps` representative nodes. The genesis account
    /// delegates its full weight equally by funding `reps` rep accounts
    /// — for test simplicity the genesis weight itself backs node 0's
    /// rep identity, and we fund the others from it.
    struct Fixture {
        sim: Net,
        genesis: NanoAccount,
        rep_accounts: Vec<NanoAccount>,
    }

    /// Builds `n` nodes; reps[i] is an account with `share` balance
    /// delegated to itself, funded from genesis before the network
    /// starts (the funding blocks are injected to every node directly).
    fn fixture(seed: u64, n: usize, latency_ms: u64) -> Fixture {
        let mut genesis = NanoAccount::from_seed([9u8; 32], 8, BITS);
        let genesis_block = genesis.genesis_block(1_000_000);

        let mut rep_accounts: Vec<NanoAccount> = (0..n)
            .map(|i| NanoAccount::from_seed([10 + i as u8; 32], 8, BITS))
            .collect();

        // Pre-ledger: fund each rep with an equal share.
        let share = 1_000_000 / (n as u64 + 1);
        let mut bootstrap = vec![genesis_block.clone()];
        for rep in rep_accounts.iter_mut() {
            let send = genesis.send(rep.address(), share).unwrap();
            let send_hash = send.hash();
            bootstrap.push(send);
            bootstrap.push(rep.receive(send_hash, share).unwrap());
        }

        let mut sim: Net =
            Simulation::new(seed, LatencyModel::Fixed(SimTime::from_millis(latency_ms)));
        for rep_account in rep_accounts.iter().take(n) {
            let config = DagNodeConfig {
                representative: Some(rep_account.address()),
                quorum_fraction: 0.5,
                cement_on_confirm: true,
            };
            let mut node = DagNode::new(params(), genesis_block.clone(), config);
            for block in &bootstrap[1..] {
                node.bootstrap(block.clone());
            }
            sim.add_node(node);
        }
        Fixture {
            sim,
            genesis,
            rep_accounts,
        }
    }

    #[test]
    fn published_block_reaches_everyone_and_confirms() {
        let mut fx = fixture(1, 4, 10);
        let recipient = Address::from_label("recipient");
        let send = fx.rep_accounts[0].send(recipient, 500).unwrap();
        let send_hash = send.hash();
        fx.sim.deliver_at(
            SimTime::from_millis(1),
            NodeId(0),
            NodeId(0),
            DagMsg::publish(send),
        );
        fx.sim.run_until_idle(SimTime::from_secs(10));

        for i in 0..4 {
            let node = fx.sim.node(NodeId(i));
            assert!(node.lattice().contains(&send_hash), "node {i} has block");
            assert!(node.is_confirmed(&send_hash), "node {i} confirmed");
            assert!(node.lattice().is_cemented(&send_hash), "node {i} cemented");
        }
        assert!(fx.sim.metrics().count("dag.votes_cast") >= 4);
        let _ = fx.genesis;
    }

    #[test]
    fn fork_resolved_by_weighted_vote_with_consistent_winner() {
        let mut fx = fixture(2, 5, 30);
        // The attacker signs two conflicting sends (double spend).
        let mut attacker = fx.rep_accounts[4].clone();
        let mut attacker_fork = attacker.fork_state();
        let a = attacker.send(Address::from_label("merchant"), 100).unwrap();
        let b = attacker_fork
            .send(Address::from_label("self"), 100)
            .unwrap();
        let (a_hash, b_hash) = (a.hash(), b.hash());
        // Half the network sees A first, half sees B first.
        fx.sim.deliver_at(
            SimTime::from_millis(1),
            NodeId(0),
            NodeId(0),
            DagMsg::publish(a.clone()),
        );
        fx.sim.deliver_at(
            SimTime::from_millis(1),
            NodeId(3),
            NodeId(3),
            DagMsg::publish(b.clone()),
        );
        fx.sim.run_until_idle(SimTime::from_secs(30));

        // Exactly one branch confirmed, consistently across nodes.
        let confirmed_a: usize = (0..5)
            .filter(|i| fx.sim.node(NodeId(*i)).is_confirmed(&a_hash))
            .count();
        let confirmed_b: usize = (0..5)
            .filter(|i| fx.sim.node(NodeId(*i)).is_confirmed(&b_hash))
            .count();
        assert!(
            (confirmed_a == 5 && confirmed_b == 0) || (confirmed_b == 5 && confirmed_a == 0),
            "one winner network-wide (a: {confirmed_a}, b: {confirmed_b})"
        );
        assert!(fx.sim.metrics().count("dag.forks_detected") > 0);
        // Every node's ledger holds the winner at the disputed position.
        let winner = if confirmed_a == 5 { a_hash } else { b_hash };
        for i in 0..5 {
            assert!(fx.sim.node(NodeId(i)).lattice().contains(&winner));
        }
    }

    #[test]
    fn out_of_order_blocks_heal_via_gap_buffer() {
        let mut fx = fixture(3, 3, 10);
        let recipient = Address::from_label("r");
        let s1 = fx.rep_accounts[0].send(recipient, 10).unwrap();
        let s2 = fx.rep_accounts[0].send(recipient, 10).unwrap();
        let (s1_hash, s2_hash) = (s1.hash(), s2.hash());
        // Deliver the second first.
        fx.sim.deliver_at(
            SimTime::from_millis(1),
            NodeId(1),
            NodeId(1),
            DagMsg::publish(s2),
        );
        fx.sim.deliver_at(
            SimTime::from_millis(50),
            NodeId(1),
            NodeId(1),
            DagMsg::publish(s1),
        );
        fx.sim.run_until_idle(SimTime::from_secs(10));
        for i in 0..3 {
            let node = fx.sim.node(NodeId(i));
            assert!(node.lattice().contains(&s1_hash));
            assert!(node.lattice().contains(&s2_hash), "gap healed on node {i}");
        }
        assert!(fx.sim.metrics().count("dag.gap_buffered") > 0);
    }

    #[test]
    fn receive_before_its_send_heals_via_gap_buffer() {
        // The receive reaches node 2 before the send it claims has
        // arrived anywhere: it waits for the send instead of being
        // rejected, and every node ends up with both.
        let mut fx = fixture(5, 3, 10);
        let mut recipient = NanoAccount::from_seed([40u8; 32], 4, BITS);
        let send = fx.rep_accounts[0].send(recipient.address(), 25).unwrap();
        let send_hash = send.hash();
        let receive = recipient.receive(send_hash, 25).unwrap();
        let receive_hash = receive.hash();
        fx.sim.deliver_at(
            SimTime::from_millis(1),
            NodeId(2),
            NodeId(2),
            DagMsg::publish(receive),
        );
        fx.sim.deliver_at(
            SimTime::from_millis(50),
            NodeId(0),
            NodeId(0),
            DagMsg::publish(send),
        );
        fx.sim.run_until_idle(SimTime::from_secs(10));
        for i in 0..3 {
            let node = fx.sim.node(NodeId(i));
            assert!(node.lattice().contains(&send_hash), "node {i} has the send");
            assert!(
                node.lattice().contains(&receive_hash),
                "node {i} has the receive"
            );
            assert!(node.lattice().is_settled(&send_hash), "node {i} settled");
        }
        assert_eq!(fx.sim.metrics().count("dag.blocks_rejected"), 0);
    }

    #[test]
    fn no_voting_overhead_without_conflict() {
        // §III-B: "For a transaction with no issues, no voting overhead
        // is required" — votes still circulate for confirmation, but no
        // election ever has two candidates.
        let mut fx = fixture(4, 3, 10);
        let send = fx.rep_accounts[0]
            .send(Address::from_label("x"), 5)
            .unwrap();
        fx.sim.deliver_at(
            SimTime::from_millis(1),
            NodeId(0),
            NodeId(0),
            DagMsg::publish(send),
        );
        fx.sim.run_until_idle(SimTime::from_secs(10));
        assert_eq!(fx.sim.metrics().count("dag.forks_detected"), 0);
        assert_eq!(fx.sim.metrics().count("dag.losing_branches_rolled_back"), 0);
    }

    #[test]
    fn votes_relay_once_per_representative_candidate_and_root() {
        // Node 0 relays to node 1 only, and node 1 has no peers, so
        // every scheduled message is one relay (or publish) by node 0.
        let mut fx = fixture(6, 2, 10);
        fx.sim
            .network_mut()
            .set_topology(vec![vec![NodeId(1)], vec![]]);
        let mut at = 0;
        let mut deliver = |fx: &mut Fixture, msg: DagMsg| {
            at += 100;
            fx.sim
                .deliver_at(SimTime::from_millis(at), NodeId(0), NodeId(0), msg);
            fx.sim.run_until_idle(SimTime::from_secs(10));
            fx.sim.metrics().count("net.messages")
        };
        let other = fx.rep_accounts[1].address();
        let root = (Address::from_label("account"), Digest::ZERO);
        let other_root = (root.0, Address::from_label("previous").0);
        let (x, y) = (Address::from_label("x").0, Address::from_label("y").0);
        let vote = |root, candidate| {
            DagMsg::Vote(Vote {
                representative: other,
                root,
                candidate,
            })
        };
        assert_eq!(deliver(&mut fx, vote(root, x)), 1, "first hearing");
        assert_eq!(deliver(&mut fx, vote(root, x)), 1, "repeat");
        assert_eq!(deliver(&mut fx, vote(root, y)), 2, "other candidate");
        assert_eq!(deliver(&mut fx, vote(root, x)), 2, "flip back");
        assert_eq!(deliver(&mut fx, vote(other_root, x)), 3, "other root");

        // Node 0 relays a publish and casts its own vote, which it
        // tallies without hearing it: the first echo is relayed.
        let send = fx.rep_accounts[0]
            .send(Address::from_label("z"), 5)
            .unwrap();
        let own = DagMsg::Vote(Vote {
            representative: fx.rep_accounts[0].address(),
            root: DagNode::election_root(&send),
            candidate: send.hash(),
        });
        assert_eq!(deliver(&mut fx, DagMsg::publish(send)), 5, "publish + vote");
        assert_eq!(deliver(&mut fx, own.clone()), 6, "own vote's echo");
        assert_eq!(deliver(&mut fx, own), 6, "second echo");
    }

    #[test]
    fn confirmation_latency_recorded() {
        let mut fx = fixture(5, 4, 25);
        let send = fx.rep_accounts[1]
            .send(Address::from_label("y"), 5)
            .unwrap();
        fx.sim.deliver_at(
            SimTime::from_millis(1),
            NodeId(1),
            NodeId(1),
            DagMsg::publish(send),
        );
        fx.sim.run_until_idle(SimTime::from_secs(10));
        let latency = fx.sim.metrics().mean("dag.confirm_latency_ms");
        assert!(latency.is_some(), "latency samples recorded");
        // With 25 ms links, confirmation needs at least one vote round.
        assert!(latency.unwrap() >= 20.0, "latency {latency:?}");
    }
}
