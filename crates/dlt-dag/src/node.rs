//! A Nano-like network node for the discrete-event simulator
//! (paper §III-B, §IV-B).
//!
//! Nodes flood-relay published blocks. A node configured as a
//! *representative* votes on every block it accepts ("a representative
//! that sees a new transaction forwards the transaction with its
//! vote-signature attached … the network automatically broadcasts
//! consensus information, while the transaction is making its way
//! through the network"), and votes for the **first-seen** candidate
//! when it detects a fork. If every representative has voted and the
//! fork is still split below the quorum, representatives on a trailing
//! candidate move to the leader. A block is *confirmed* once votes
//! reaching the quorum accumulate (§IV-B: "a majority vote for the send
//! and receive transactions"); nodes that adopted the losing side of a
//! fork roll it back and adopt the winner. Confirmed blocks are
//! cemented.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use dlt_crypto::keys::Address;
use dlt_crypto::Digest;
use dlt_sim::engine::{Context, ObjectId, Payload, SimNode};
use dlt_sim::metrics::{CounterId, Metrics, SeriesId};
use dlt_sim::network::NodeId;

use crate::block::LatticeBlock;
use crate::lattice::{Lattice, LatticeError, LatticeParams};
use crate::voting::{Election, ElectionManager, ElectionRoot, Vote};

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

impl ObjectId for DagMsg {
    /// A published block's hash; a vote carries no object.
    fn object_id(&self) -> Option<Digest> {
        match self {
            DagMsg::Publish(block) => Some(block.hash()),
            DagMsg::Vote(_) => None,
        }
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
    votes_refused: CounterId,
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
            votes_refused: metrics.counter("dag.votes_refused"),
            confirm_latency_ms: metrics.series("dag.confirm_latency_ms"),
        }
    }
}

/// What a node holds for one block hash: its publish dedup, its body
/// and its confirmation, in one record.
#[derive(Debug, Default)]
struct BlockRecord {
    /// The publish as first heard (the payload the relay shared) and
    /// its arrival time in µs. `None` for a bootstrap block, whose one
    /// body is the lattice's.
    heard: Option<(Payload<DagMsg>, u64)>,
    /// Whether this node has confirmed the block.
    confirmed: bool,
}

/// How a held block body reaches [`DagNode::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Via {
    /// First hearing, or release from the gap buffer: accepting the
    /// block casts this node's vote, and a fork, gap or rejection is
    /// handled as gossip.
    Gossip,
    /// Adoption of a confirmed winner: no vote, and a block that does
    /// not apply is left where it is.
    Adoption,
}

/// A full DAG node: lattice, elections, relay and (optionally) voting.
pub struct DagNode {
    lattice: Lattice,
    elections: ElectionManager,
    config: DagNodeConfig,
    /// One record per block hash heard or bootstrapped (vote dedup
    /// lives in the elections: [`ElectionManager::first_hearing`]).
    blocks: BTreeMap<Digest, BlockRecord>,
    /// Heard blocks whose `previous` or source is not in the lattice
    /// yet, keyed by that gap.
    gap_buffer: BTreeMap<Digest, Vec<Digest>>,
    /// Number of blocks confirmed locally.
    confirmations: usize,
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
            blocks: BTreeMap::new(),
            gap_buffer: BTreeMap::new(),
            confirmations: 0,
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
        let hash = self
            .lattice
            .process(block)
            .expect("bootstrap blocks are valid");
        self.blocks.insert(hash, BlockRecord::default());
    }

    /// This node's election state.
    pub fn elections(&self) -> &ElectionManager {
        &self.elections
    }

    /// Whether this node has confirmed a block.
    pub fn is_confirmed(&self, hash: &Digest) -> bool {
        self.blocks.get(hash).is_some_and(|record| record.confirmed)
    }

    /// Number of blocks confirmed locally.
    pub fn confirmed_count(&self) -> usize {
        self.confirmations
    }

    fn election_root(block: &LatticeBlock) -> ElectionRoot {
        (block.account, block.previous)
    }

    /// Whether `vote` can still count on this node. It cannot when its
    /// representative has no weight in this node's lattice, or when
    /// its root is settled here: the block occupying the root is one
    /// this node confirmed and has cemented. A vote that cannot count
    /// is neither heard, tallied nor relayed, and opens no election.
    ///
    /// Cemented alone is not settled: cementing a block also cements
    /// its ancestors, whose own elections may still be open here.
    fn admits(&self, vote: &Vote) -> bool {
        if self.lattice.weight(&vote.representative) == 0 {
            return false;
        }
        let (account, previous) = vote.root;
        !self
            .lattice
            .occupier(&account, &previous)
            .is_some_and(|hash| self.is_confirmed(&hash) && self.lattice.is_cemented(&hash))
    }

    /// Casts this node's representative vote (if it is one, and the
    /// vote can count) and gossips it.
    fn cast_vote(&mut self, ctx: &mut Context<'_, DagMsg>, root: ElectionRoot, candidate: Digest) {
        let Some(rep) = self.config.representative else {
            return;
        };
        let vote = Vote {
            representative: rep,
            root,
            candidate,
        };
        if !self.admits(&vote) {
            return;
        }
        self.handle_vote(ctx, vote);
        ctx.broadcast(DagMsg::Vote(vote));
        let m = self.handles();
        ctx.metrics().inc(m.votes_cast);
    }

    /// Hears a gossiped `Publish`: dedup on the block record, validate,
    /// write the record, relay, then apply. Runs once per valid block
    /// per node. Takes the shared payload so the flood relay re-shares
    /// the sender's allocation instead of cloning the block per peer,
    /// and so the engine hashes the block once for the whole flood
    /// ([`Context::object_id`]).
    ///
    /// The stateless checks run on the shared payload, whose signature
    /// keeps the verdict: the first node to hear the block pays for
    /// the check, and later checks of the payload or of a clone of it,
    /// such as the lattice's, share it. A block that fails is counted
    /// as rejected, and is neither relayed nor recorded, so a valid
    /// copy with the same hash (which covers neither work nor
    /// signature) is still heard.
    fn handle_publish(&mut self, ctx: &mut Context<'_, DagMsg>, msg: Payload<DagMsg>) {
        let DagMsg::Publish(block) = &*msg else {
            return;
        };
        let Some(hash) = ctx.object_id(&msg) else {
            return;
        };
        let Entry::Vacant(slot) = self.blocks.entry(hash) else {
            return;
        };
        if block.check_stateless(&hash, self.lattice.params()).is_err() {
            let m = self.handles();
            ctx.metrics().inc(m.blocks_rejected);
            return;
        }
        slot.insert(BlockRecord {
            heard: Some((Payload::clone(&msg), ctx.now().as_micros())),
            confirmed: false,
        });
        ctx.broadcast(msg);
        self.apply(ctx, hash, Via::Gossip);
    }

    /// Offers the heard body of block `hash` to the lattice; the one
    /// way a block body enters it. Whenever the lattice accepts a
    /// block, the blocks held in the gap buffer on its hash are applied
    /// next, through this same function. Returns whether the block was
    /// accepted (`false` too when its body has not been heard).
    fn apply(&mut self, ctx: &mut Context<'_, DagMsg>, hash: Digest, via: Via) -> bool {
        let Some((msg, _)) = self.blocks.get(&hash).and_then(|r| r.heard.clone()) else {
            return false;
        };
        let DagMsg::Publish(block) = &*msg else {
            return false;
        };
        let m = self.handles();
        let root = Self::election_root(block);
        let result = self.lattice.process(block.clone());
        let accepted = result.is_ok();
        match result {
            Ok(_) => {
                if via == Via::Gossip {
                    ctx.metrics().inc(m.blocks_accepted);
                    self.cast_vote(ctx, root, hash);
                }
                for held in self.gap_buffer.remove(&hash).unwrap_or_default() {
                    self.apply(ctx, held, Via::Gossip);
                }
            }
            // Can't adopt. A winner with a gap of its own is still in
            // the gap buffer; its release applies the confirmation.
            Err(_) if via == Via::Adoption => {
                ctx.metrics().inc(m.confirmed_unadoptable);
            }
            Err(LatticeError::Fork { existing }) => {
                // First-seen voting policy: back the incumbent. The node
                // voted for it on accepting it; under message loss this
                // repeat is the DAG's only retransmission of a vote (a
                // peer that lost the first copy hears it now). Without
                // it `dag_liveness` fails under 30% drop.
                ctx.metrics().inc(m.forks_detected);
                ctx.trace_mark("dag.fork_detected", 1);
                self.cast_vote(ctx, root, existing);
            }
            // Held until the missing block is accepted.
            Err(err @ (LatticeError::GapPrevious | LatticeError::GapSource { .. })) => {
                ctx.metrics().inc(m.gap_buffered);
                let gap = match err {
                    LatticeError::GapSource { source } => source,
                    _ => block.previous,
                };
                self.gap_buffer.entry(gap).or_default().push(hash);
            }
            Err(LatticeError::Duplicate) => {}
            Err(_) => {
                ctx.metrics().inc(m.blocks_rejected);
            }
        }
        // The election for this position may have concluded before the
        // winning block's body reached us — apply it now that we hold
        // the body.
        if via == Via::Gossip
            && self.elections.is_confirmed(&root, &hash)
            && !self.is_confirmed(&hash)
        {
            self.apply_confirmation(ctx, root, hash);
        }
        accepted
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
        match winner {
            Some(winner) => self.apply_confirmation(ctx, vote.root, winner),
            None => self.break_stalemate(ctx, vote.root),
        }
    }

    /// Moves this node's representative vote to the leading candidate
    /// once the election for `root` is stuck: two or more candidates
    /// split the weight, none reached the quorum, and every
    /// representative holding weight in this node's lattice has voted,
    /// so no vote still to come can decide it. Nano's representatives
    /// likewise re-vote for the candidate with the most weight.
    ///
    /// Every node that sees the stalemate has heard the same first
    /// votes, so each representative on a trailing candidate moves to
    /// the same leader (up to differences in the weights nodes see),
    /// which then holds all the cast weight. A representative already
    /// on the leader never moves, so a trailing candidate gains no
    /// weight and cannot be confirmed anywhere.
    fn break_stalemate(&mut self, ctx: &mut Context<'_, DagMsg>, root: ElectionRoot) {
        let Some(rep) = self.config.representative else {
            return;
        };
        let Some(election) = self.elections.election(&root) else {
            return;
        };
        if election.candidate_count() < 2 || election.confirmed().is_some() {
            return;
        }
        let Some((leader, _)) = election.leader() else {
            return;
        };
        if election.backing(&rep).is_none_or(|backed| backed == leader) {
            return;
        }
        if self
            .lattice
            .weighted_representatives()
            .all(|r| election.backing(r).is_some())
        {
            self.cast_vote(ctx, root, leader);
        }
    }

    /// Adopts and cements a confirmed winner, rolling back a locally
    /// adopted losing branch if necessary. Once the winner is cemented
    /// the root's election is dropped: later votes for the root are
    /// refused ([`DagNode::admits`]).
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
            if let Some(loser) = self.lattice.occupier(&account, &previous) {
                if self.lattice.rollback(&loser).is_ok() {
                    ctx.metrics().inc(m.losing_branches_rolled_back);
                }
            }
            // A body not heard yet is confirmed on arrival.
            if !self.apply(ctx, winner, Via::Adoption) {
                return;
            }
        }
        // Only the genesis block is in the lattice without a record.
        let record = self.blocks.entry(winner).or_default();
        if record.confirmed {
            return;
        }
        record.confirmed = true;
        let arrived = record.heard.as_ref().map(|&(_, at)| at);
        self.confirmations += 1;
        ctx.metrics().inc(m.blocks_confirmed);
        ctx.trace_mark("dag.block_confirmed", self.confirmations as u64);
        if let Some(arrived) = arrived {
            let latency_ms = (ctx.now().as_micros().saturating_sub(arrived)) as f64 / 1e3;
            ctx.metrics().record(m.confirm_latency_ms, latency_ms);
        }
        if self.config.cement_on_confirm && self.lattice.cement(&winner).is_ok() {
            self.elections.forget(&root);
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
                if !self.admits(&vote) {
                    let m = self.handles();
                    ctx.metrics().inc(m.votes_refused);
                    return;
                }
                if !self.elections.first_hearing(&vote) {
                    return;
                }
                // Relay the shared payload (no per-peer deep clone)
                // only while the root is undecided here. The relay
                // comes before the tally, so the vote that completes
                // this node's quorum is still relayed: every peer
                // hears at least the quorum this node decided on.
                let decided = self
                    .elections
                    .election(&vote.root)
                    .and_then(Election::confirmed)
                    .is_some();
                if !decided {
                    ctx.broadcast(Payload::clone(&msg));
                }
                self.handle_vote(ctx, vote);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::NanoAccount;
    use crate::block::with_forged_signature;
    use dlt_sim::engine::Simulation;
    use dlt_sim::latency::LatencyModel;
    use dlt_sim::time::SimTime;
    use dlt_testkit::prop;
    use dlt_testkit::prop::Gen;

    const BITS: u32 = 2;

    fn params() -> LatticeParams {
        LatticeParams {
            work_difficulty_bits: BITS,
            ..Default::default()
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
    fn gap_held_block_is_relayed_once_and_timed_from_first_arrival() {
        // Node 0 relays to node 1 only, and node 1 has no peers, so
        // every scheduled message is one relay (or vote) by node 0.
        let mut fx = fixture(7, 2, 10);
        fx.sim
            .network_mut()
            .set_topology(vec![vec![NodeId(1)], vec![]]);
        let recipient = Address::from_label("r");
        let s1 = fx.rep_accounts[0].send(recipient, 10).unwrap();
        let s2 = fx.rep_accounts[0].send(recipient, 10).unwrap();
        // `s2` arrives first and waits for `s1` in the gap buffer.
        fx.sim.deliver_at(
            SimTime::from_millis(100),
            NodeId(0),
            NodeId(0),
            DagMsg::publish(s2),
        );
        fx.sim.run_until_idle(SimTime::from_secs(10));
        assert_eq!(fx.sim.metrics().count("net.messages"), 1, "s2 relayed");
        fx.sim.deliver_at(
            SimTime::from_millis(200),
            NodeId(0),
            NodeId(0),
            DagMsg::publish(s1),
        );
        fx.sim.run_until_idle(SimTime::from_secs(10));
        assert_eq!(
            fx.sim.metrics().count("dag.gap_buffered"),
            2,
            "one per node"
        );
        assert_eq!(
            fx.sim.metrics().count("net.messages"),
            4,
            "s1 relayed and one vote each for s1 and s2, s2 not relayed again"
        );
        // Node 1 heard s2 at 110 ms and s1 at 210 ms, and confirms both
        // when node 0's votes arrive at 210 ms.
        let mut latencies = fx.sim.metrics().samples("dag.confirm_latency_ms").to_vec();
        latencies.sort_by(f64::total_cmp);
        assert_eq!(latencies, [0.0, 100.0]);
    }

    #[test]
    fn block_with_a_forged_signature_is_rejected_before_relay() {
        let mut fx = fixture(9, 4, 10);
        let send = fx.rep_accounts[0]
            .send(Address::from_label("x"), 5)
            .unwrap();
        let hash = send.hash();
        let forged = Payload::new(DagMsg::publish(with_forged_signature(send.clone())));
        // The same allocation twice: the engine remembers its id, and
        // the check still runs and rejects it each time.
        for (at, rejected) in [(1, 1), (10, 2)] {
            fx.sim.deliver_at(
                SimTime::from_millis(at),
                NodeId(0),
                NodeId(0),
                Payload::clone(&forged),
            );
            fx.sim.run_until_idle(SimTime::from_secs(10));
            assert_eq!(fx.sim.metrics().count("net.messages"), 0, "no relay");
            assert_eq!(fx.sim.metrics().count("dag.blocks_rejected"), rejected);
            let node = fx.sim.node(NodeId(0));
            assert!(!node.blocks.contains_key(&hash), "no record");
            assert!(node.gap_buffer.is_empty());
        }

        // The genuine block, in another allocation, has the same hash,
        // and is still heard.
        fx.sim.deliver_at(
            SimTime::from_millis(20),
            NodeId(0),
            NodeId(0),
            DagMsg::publish(send),
        );
        fx.sim.run_until_idle(SimTime::from_secs(10));
        for i in 0..4 {
            assert!(fx.sim.node(NodeId(i)).is_confirmed(&hash), "node {i}");
        }
        assert_eq!(fx.sim.metrics().count("dag.blocks_rejected"), 2);
    }

    #[test]
    fn successor_of_an_adopted_winner_is_applied() {
        // Node 0 hears the loser `b` first, then `c` (built on the
        // winner `a`), then `a` itself, then a quorum of votes for `a`.
        let mut fx = fixture(8, 4, 10);
        fx.sim.network_mut().set_topology(vec![vec![]; 4]);
        let mut a_side = fx.genesis.fork_state();
        let mut b_side = fx.genesis.fork_state();
        let a = a_side.send(Address::from_label("a"), 100).unwrap();
        let c = a_side.send(Address::from_label("c"), 100).unwrap();
        let b = b_side.send(Address::from_label("b"), 100).unwrap();
        let (root, a_hash, c_hash) = (DagNode::election_root(&a), a.hash(), c.hash());
        let mut msgs = vec![DagMsg::publish(b), DagMsg::publish(c), DagMsg::publish(a)];
        for rep in &fx.rep_accounts[1..] {
            msgs.push(DagMsg::Vote(Vote {
                representative: rep.address(),
                root,
                candidate: a_hash,
            }));
        }
        for (i, msg) in msgs.into_iter().enumerate() {
            let at = SimTime::from_millis(100 * (i as u64 + 1));
            fx.sim.deliver_at(at, NodeId(0), NodeId(0), msg);
        }
        fx.sim.run_until_idle(SimTime::from_secs(10));
        let node = fx.sim.node(NodeId(0));
        assert!(node.is_confirmed(&a_hash), "a confirmed");
        assert!(node.lattice().contains(&a_hash), "a adopted");
        assert!(node.lattice().contains(&c_hash), "c applied after a");
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

    /// A vote by `rep` for `block` at its root.
    fn vote_for(rep: &NanoAccount, block: &LatticeBlock) -> DagMsg {
        DagMsg::Vote(Vote {
            representative: rep.address(),
            root: DagNode::election_root(block),
            candidate: block.hash(),
        })
    }

    #[test]
    fn zero_weight_vote_is_refused_before_it_is_heard() {
        let mut fx = fixture(10, 4, 10);
        let root = (Address::from_label("made-up"), Digest::ZERO);
        fx.sim.deliver_at(
            SimTime::from_millis(1),
            NodeId(0),
            NodeId(0),
            DagMsg::Vote(Vote {
                representative: Address::from_label("nobody"),
                root,
                candidate: Address::from_label("candidate").0,
            }),
        );
        fx.sim.run_until_idle(SimTime::from_secs(10));
        let node = fx.sim.node(NodeId(0));
        assert!(node.elections().election(&root).is_none(), "no election");
        assert_eq!(node.elections().live_count(), 0);
        assert_eq!(fx.sim.metrics().count("net.messages"), 0, "no relay");
        assert_eq!(fx.sim.metrics().count("dag.votes_refused"), 1);
    }

    #[test]
    fn a_vote_heard_after_the_local_decision_is_not_relayed() {
        // Node 0 relays to node 1 only, and node 1 has no peers, so
        // every scheduled message is one send by node 0. Node 0 does
        // not cement, so its decided election stays open and only the
        // relay rule keeps the last vote from being relayed.
        let mut fx = fixture(11, 4, 10);
        fx.sim
            .network_mut()
            .set_topology(vec![vec![NodeId(1)], vec![], vec![], vec![]]);
        fx.sim.node_mut(NodeId(0)).config.cement_on_confirm = false;
        let send = fx.rep_accounts[0]
            .send(Address::from_label("x"), 5)
            .unwrap();
        let hash = send.hash();
        let votes: Vec<DagMsg> = fx.rep_accounts[1..]
            .iter()
            .map(|rep| vote_for(rep, &send))
            .collect();
        let mut at = 0;
        let mut deliver = |fx: &mut Fixture, msg: DagMsg| {
            at += 100;
            fx.sim
                .deliver_at(SimTime::from_millis(at), NodeId(0), NodeId(0), msg);
            fx.sim.run_until_idle(SimTime::from_secs(10));
            fx.sim.metrics().count("net.messages")
        };
        // Each rep holds a fifth of the supply; the quorum is half.
        assert_eq!(
            deliver(&mut fx, DagMsg::publish(send)),
            2,
            "publish + own vote"
        );
        assert_eq!(deliver(&mut fx, votes[0].clone()), 3, "undecided");
        assert!(!fx.sim.node(NodeId(0)).is_confirmed(&hash));
        assert_eq!(
            deliver(&mut fx, votes[1].clone()),
            4,
            "completes the quorum"
        );
        assert!(fx.sim.node(NodeId(0)).is_confirmed(&hash));
        assert_eq!(
            deliver(&mut fx, votes[2].clone()),
            4,
            "decided: not relayed"
        );
    }

    #[test]
    fn cemented_roots_hold_no_election_and_refuse_late_votes() {
        let mut fx = fixture(12, 4, 10);
        // A fork of the first send's position, held back until the
        // position is cemented.
        let mut fork_side = fx.rep_accounts[0].fork_state();
        let sends: Vec<LatticeBlock> = (0..3)
            .map(|i| {
                fx.rep_accounts[0]
                    .send(Address::from_label(&format!("to-{i}")), 5)
                    .unwrap()
            })
            .collect();
        let late_fork = fork_side.send(Address::from_label("late"), 5).unwrap();
        for (i, send) in sends.iter().enumerate() {
            fx.sim.deliver_at(
                SimTime::from_millis(1 + 500 * i as u64),
                NodeId(0),
                NodeId(0),
                DagMsg::publish(send.clone()),
            );
        }
        fx.sim.run_until_idle(SimTime::from_secs(10));
        for i in 0..4 {
            let node = fx.sim.node(NodeId(i));
            for send in &sends {
                assert!(node.is_confirmed(&send.hash()), "node {i} confirmed");
                assert!(
                    node.lattice().is_cemented(&send.hash()),
                    "node {i} cemented"
                );
                let root = DagNode::election_root(send);
                assert!(node.elections().election(&root).is_none(), "node {i}");
            }
        }

        // A late vote for a cemented root: refused, not relayed.
        let messages = fx.sim.metrics().count("net.messages");
        let refused = fx.sim.metrics().count("dag.votes_refused");
        let late_vote = vote_for(&fx.rep_accounts[1], &sends[0]);
        fx.sim
            .deliver_at(SimTime::from_secs(11), NodeId(0), NodeId(0), late_vote);
        fx.sim.run_until_idle(SimTime::from_secs(20));
        assert_eq!(fx.sim.metrics().count("net.messages"), messages);
        assert_eq!(fx.sim.metrics().count("dag.votes_refused"), refused + 1);

        // A late fork is a valid block, so it is relayed; but no node
        // votes on the cemented position or opens an election for it.
        let votes_cast = fx.sim.metrics().count("dag.votes_cast");
        fx.sim.deliver_at(
            SimTime::from_secs(21),
            NodeId(0),
            NodeId(0),
            DagMsg::publish(late_fork),
        );
        fx.sim.run_until_idle(SimTime::from_secs(30));
        assert_eq!(fx.sim.metrics().count("dag.forks_detected"), 4);
        assert_eq!(fx.sim.metrics().count("dag.votes_cast"), votes_cast);
        assert_eq!(fx.sim.metrics().count("net.messages"), messages + 12);
        let root = DagNode::election_root(&sends[0]);
        for i in 0..4 {
            let node = fx.sim.node(NodeId(i));
            assert!(node.elections().election(&root).is_none(), "node {i}");
            assert!(node.is_confirmed(&sends[0].hash()), "node {i}");
        }
    }

    #[test]
    fn every_node_on_a_line_confirms_every_block() {
        // 0 – 1 – 2 – 3: each vote reaches the far end only through the
        // relays of the nodes between, which stop at their decision.
        let mut fx = fixture(13, 4, 10);
        fx.sim.network_mut().set_topology(vec![
            vec![NodeId(1)],
            vec![NodeId(0), NodeId(2)],
            vec![NodeId(1), NodeId(3)],
            vec![NodeId(2)],
        ]);
        let mut hashes = Vec::new();
        for i in 0..3u64 {
            for (account, home) in [(0, 0), (3, 3)] {
                let send = fx.rep_accounts[account]
                    .send(Address::from_label("line"), 5)
                    .unwrap();
                hashes.push(send.hash());
                fx.sim.deliver_at(
                    SimTime::from_millis(1 + 300 * i),
                    NodeId(home),
                    NodeId(home),
                    DagMsg::publish(send),
                );
            }
        }
        fx.sim.run_until_idle(SimTime::from_secs(10));
        for i in 0..4 {
            let node = fx.sim.node(NodeId(i));
            for hash in &hashes {
                assert!(node.is_confirmed(hash), "node {i}");
            }
            assert_eq!(node.elections().live_count(), 0, "node {i}");
        }
    }

    #[test]
    fn a_split_below_the_quorum_moves_to_the_leader() {
        // All weight sits with the four representatives: genesis sends
        // its own share to an account that never receives it. A double
        // spend heard first by nodes 0 and 1 on one side and 2 and 3 on
        // the other splits it 400,000 to 399,900, both short of the
        // 500,000 quorum. Without a re-vote it stays split forever.
        let mut fx = fixture(17, 4, 10);
        let drain = fx
            .genesis
            .send(Address::from_label("sink"), 200_000)
            .unwrap();
        for i in 0..4 {
            fx.sim.node_mut(NodeId(i)).bootstrap(drain.clone());
        }
        let mut attacker = fx.rep_accounts[3].clone();
        let mut attacker_fork = attacker.fork_state();
        let a = attacker.send(Address::from_label("merchant"), 100).unwrap();
        let b = attacker_fork
            .send(Address::from_label("self"), 100)
            .unwrap();
        let (a_hash, b_hash) = (a.hash(), b.hash());
        for (home, block) in [(0, &a), (1, &a), (2, &b), (3, &b)] {
            fx.sim.deliver_at(
                SimTime::from_millis(1),
                NodeId(home),
                NodeId(home),
                DagMsg::publish(block.clone()),
            );
        }
        // Node 2 hears every first vote before `a` itself: its move
        // gives `a` the quorum there at once, so it rolls `b` back
        // before it holds `a`, and adopts `a` when it arrives.
        for (rep, block) in [(0, &a), (1, &a), (3, &b)] {
            fx.sim.deliver_at(
                SimTime::from_millis(2),
                NodeId(rep),
                NodeId(2),
                vote_for(&fx.rep_accounts[rep], block),
            );
        }
        fx.sim.run_until_idle(SimTime::from_secs(10));
        for i in 0..4 {
            let node = fx.sim.node(NodeId(i));
            assert!(node.is_confirmed(&a_hash), "node {i} confirmed the leader");
            assert!(node.lattice().is_cemented(&a_hash), "node {i}");
            assert!(!node.lattice().contains(&b_hash), "node {i} rolled back");
            assert!(!node.is_confirmed(&b_hash), "node {i}");
        }
        // One vote per node on acceptance, one move by each of the two
        // representatives behind `b`, and one vote on the fork by each
        // node that held a block when the other arrived: all but node 2,
        // which accepts `a` instead (one more acceptance vote).
        assert_eq!(fx.sim.metrics().count("dag.votes_cast"), 4 + 4 + 2);
        assert_eq!(fx.sim.metrics().count("dag.losing_branches_rolled_back"), 2);
    }

    /// Representatives run by honest nodes; node `HONEST` is the
    /// adversarial peer, which holds the keys of account `HONEST` and
    /// votes as no one.
    const HONEST: usize = 3;

    /// One message of the adversarial peer's stream in
    /// [`honest_nodes_neither_relay_nor_keep_an_adversarial_stream`].
    fn attack(g: &mut Gen, fx: &Fixture, published: &[LatticeBlock], sent: &[DagMsg]) -> DagMsg {
        let label =
            |kind: &str, g: &mut Gen| Address::from_label(&format!("{kind}-{}", g.u64_below(4)));
        match g.u64_below(5) {
            // A zero-weight vote on a made-up root.
            0 => DagMsg::Vote(Vote {
                representative: label("sybil", g),
                root: (label("account", g), label("previous", g).0),
                candidate: label("candidate", g).0,
            }),
            // A replay of an earlier message of the stream.
            1 if !sent.is_empty() => sent[g.usize_in(0, sent.len())].clone(),
            // An honest representative's vote, heard late: its root is
            // cemented.
            2 => {
                let rep = &fx.rep_accounts[g.usize_in(0, HONEST)];
                vote_for(rep, &published[g.usize_in(0, published.len())])
            }
            // A forged copy of a block the network already holds.
            3 => DagMsg::publish(with_forged_signature(
                published[g.usize_in(0, published.len())].clone(),
            )),
            // A new block of the adversary's own account, with a forged
            // signature.
            _ => {
                let block = fx.rep_accounts[HONEST]
                    .fork_state()
                    .send(label("mule", g), g.u64_in(1, 50))
                    .unwrap();
                DagMsg::publish(with_forged_signature(block))
            }
        }
    }

    prop! {
        /// The first cut of the adversarial gossip harness. In rounds,
        /// the honest nodes settle a few sends, then one peer streams
        /// zero-weight votes on made-up roots, replays, late votes for
        /// cemented roots and blocks with forged signatures. After each
        /// stream: supply is conserved, each root has at most one
        /// winner and it is the same on every node, no honest node has
        /// an election for any root the stream voted on, and no honest
        /// node relayed any of it.
        fn honest_nodes_neither_relay_nor_keep_an_adversarial_stream(g, cases = 8) {
            let adversary = NodeId(HONEST);
            let mut fx = fixture(g.any_u64(), HONEST + 1, 10);
            fx.sim.node_mut(adversary).config.representative = None;
            let mut published: Vec<LatticeBlock> = Vec::new();
            // Every block any node may have heard, as (root, hash).
            let mut candidates: Vec<(ElectionRoot, Digest)> = Vec::new();
            let mut sent: Vec<DagMsg> = Vec::new();
            for _round in 0..2 {
                let start = fx.sim.now();
                for i in 0..g.usize_in(1, 4) {
                    let account = g.usize_in(0, HONEST);
                    let block = fx.rep_accounts[account]
                        .send(Address::from_label("shop"), g.u64_in(1, 50))
                        .unwrap();
                    let delay = SimTime::from_millis(100 * (i as u64 + 1));
                    let home = NodeId(g.usize_in(0, HONEST));
                    let msg = DagMsg::publish(block.clone());
                    fx.sim.deliver_at(start.saturating_add(delay), home, home, msg);
                    candidates.push((DagNode::election_root(&block), block.hash()));
                    published.push(block);
                }
                fx.sim.run_until_idle(start.saturating_add(SimTime::from_secs(10)));
                for i in 0..HONEST {
                    let node = fx.sim.node(NodeId(i));
                    assert!(published.iter().all(|b| node.is_confirmed(&b.hash())), "node {i}");
                }

                let messages = fx.sim.metrics().count("net.messages");
                let start = fx.sim.now();
                let mut voted_roots = Vec::new();
                for i in 0..g.usize_in(1, 13) {
                    let msg = attack(g, &fx, &published, &sent);
                    match &msg {
                        DagMsg::Vote(vote) => voted_roots.push(vote.root),
                        DagMsg::Publish(block) => {
                            // A forged copy shares its original's hash.
                            let candidate = (DagNode::election_root(block), block.hash());
                            if !candidates.contains(&candidate) {
                                candidates.push(candidate);
                            }
                        }
                    }
                    let at = start.saturating_add(SimTime::from_millis(i as u64 + 1));
                    let to = NodeId(g.usize_in(0, HONEST));
                    fx.sim.deliver_at(at, adversary, to, msg.clone());
                    sent.push(msg);
                }
                fx.sim.run_until_idle(start.saturating_add(SimTime::from_secs(10)));

                assert_eq!(fx.sim.metrics().count("net.messages"), messages, "stream relayed");
                let winners = |node: &DagNode| -> Vec<(ElectionRoot, Digest)> {
                    candidates
                        .iter()
                        .filter(|(_, hash)| node.is_confirmed(hash))
                        .copied()
                        .collect()
                };
                let first = winners(fx.sim.node(NodeId(0)));
                let mut roots: Vec<ElectionRoot> = first.iter().map(|&(root, _)| root).collect();
                roots.sort();
                roots.dedup();
                assert_eq!(roots.len(), first.len(), "one winner per root");
                for i in 0..HONEST {
                    let node = fx.sim.node(NodeId(i));
                    assert_eq!(winners(node), first, "node {i} agrees");
                    let lattice = node.lattice();
                    assert_eq!(lattice.circulating_total(), lattice.total_supply());
                    assert_eq!(node.elections().live_count(), 0, "node {i}");
                    for root in &voted_roots {
                        assert!(node.elections().election(root).is_none(), "node {i}");
                    }
                }
            }
        }
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
