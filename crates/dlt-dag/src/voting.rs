//! Weighted representative voting (paper §III-B, §IV-B).
//!
//! "Representatives vote in order to resolve conflicts. Their votes are
//! weighted: a representative's weight is calculated as the sum of all
//! balances for accounts that chose this representative. In the case of
//! a conflict, the winning transaction is the one that gained the most
//! votes."
//!
//! An [`Election`] tallies weighted votes over the candidates for one
//! *chain position* — the election root `(account, previous)`. A
//! non-conflicting block is simply an election with one candidate
//! (§IV-B: "representatives vote automatically on blocks they have not
//! seen before"); a fork adds a second candidate. A candidate whose
//! weight reaches the quorum is *confirmed*.

use std::collections::BTreeMap;

use dlt_crypto::keys::Address;
use dlt_crypto::Digest;

/// The contested chain position: an account and the predecessor the
/// candidates build on.
pub type ElectionRoot = (Address, Digest);

/// A broadcast vote: a representative backs one candidate for a root.
///
/// Vote authenticity is modelled at the identity level (the simulation
/// delivers votes unforged); production Nano signs votes with the
/// representative key, which adds nothing to the measured behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vote {
    /// The voting representative.
    pub representative: Address,
    /// The contested position.
    pub root: ElectionRoot,
    /// The backed block hash.
    pub candidate: Digest,
}

/// A running tally over the candidates for one root.
#[derive(Debug, Clone, Default)]
pub struct Election {
    /// Accumulated weight per candidate.
    tallies: BTreeMap<Digest, u64>,
    /// Which candidate each representative currently backs.
    voted: BTreeMap<Address, Digest>,
    /// Every `(representative, candidate)` pair this node has heard by
    /// gossip, sorted: the relay dedup record. Exact, never pruned.
    heard: Vec<(Address, Digest)>,
    confirmed: Option<Digest>,
}

impl Election {
    /// Creates an empty election.
    pub fn new() -> Self {
        Election::default()
    }

    /// Registers (or moves) a representative's vote with its current
    /// weight. Re-votes shift the weight between candidates — Nano
    /// representatives may switch to the network's emerging winner.
    /// Returns `true` when the vote changed which candidate leads (a
    /// *vote flip* — the observable instability adverse networks cause).
    pub fn vote(&mut self, representative: Address, weight: u64, candidate: Digest) -> bool {
        let leader_before = self.leader().map(|(hash, _)| hash);
        if let Some(previous) = self.voted.insert(representative, candidate) {
            if previous == candidate {
                // Same candidate: refresh only (weights here are
                // supplied per call; avoid double counting).
                let tally = self.tallies.entry(candidate).or_insert(0);
                *tally = (*tally).max(weight);
            } else {
                if let Some(tally) = self.tallies.get_mut(&previous) {
                    *tally = tally.saturating_sub(weight);
                }
                *self.tallies.entry(candidate).or_insert(0) += weight;
            }
        } else {
            *self.tallies.entry(candidate).or_insert(0) += weight;
        }
        let leader_after = self.leader().map(|(hash, _)| hash);
        leader_before.is_some() && leader_before != leader_after
    }

    /// Records that gossip carried `representative`'s vote for
    /// `candidate`. Returns `true` the first time the pair is heard.
    fn hear(&mut self, representative: Address, candidate: Digest) -> bool {
        let pair = (representative, candidate);
        match self.heard.binary_search(&pair) {
            Ok(_) => false,
            Err(at) => {
                self.heard.insert(at, pair);
                true
            }
        }
    }

    /// The leading candidate and its weight.
    pub fn leader(&self) -> Option<(Digest, u64)> {
        self.tallies
            .iter()
            .max_by_key(|(hash, weight)| (**weight, std::cmp::Reverse(**hash)))
            .map(|(hash, weight)| (*hash, *weight))
    }

    /// Total weight cast across all candidates.
    pub fn total_cast(&self) -> u64 {
        self.tallies.values().sum()
    }

    /// Number of distinct candidates (2+ means a live conflict).
    pub fn candidate_count(&self) -> usize {
        self.tallies.len()
    }

    /// The confirmed winner, if the election has concluded.
    pub fn confirmed(&self) -> Option<Digest> {
        self.confirmed
    }

    /// Confirms the leader if it has reached `quorum_weight`. Once
    /// confirmed, the result never changes.
    pub fn try_confirm(&mut self, quorum_weight: u64) -> Option<Digest> {
        if let Some(winner) = self.confirmed {
            return Some(winner);
        }
        let (leader, weight) = self.leader()?;
        if weight >= quorum_weight && weight > 0 {
            self.confirmed = Some(leader);
            return Some(leader);
        }
        None
    }
}

/// All live elections on a node, with the quorum policy.
#[derive(Debug, Clone)]
pub struct ElectionManager {
    elections: BTreeMap<ElectionRoot, Election>,
    /// Fraction of total delegated weight a candidate needs
    /// (paper §IV-B: "majority vote" — default 0.5; Nano mainnet uses
    /// a 0.67 online-weight quorum, which `e06` sweeps).
    quorum_fraction: f64,
    /// How many tallied votes flipped an election's leader.
    flips: u64,
}

impl ElectionManager {
    /// Creates a manager with the given quorum fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < quorum_fraction <= 1`.
    pub fn new(quorum_fraction: f64) -> Self {
        assert!(
            quorum_fraction > 0.0 && quorum_fraction <= 1.0,
            "quorum fraction out of range"
        );
        ElectionManager {
            elections: BTreeMap::new(),
            quorum_fraction,
            flips: 0,
        }
    }

    /// How many tallied votes changed an election's leading candidate
    /// so far — stable at zero on a healthy network, rising when drops
    /// or partitions let minority candidates take an early lead.
    pub fn vote_flips(&self) -> u64 {
        self.flips
    }

    /// The quorum weight implied by a total delegated weight.
    pub fn quorum_weight(&self, total_weight: u64) -> u64 {
        ((total_weight as f64) * self.quorum_fraction).ceil() as u64
    }

    /// Number of live (unconfirmed) elections.
    pub fn live_count(&self) -> usize {
        self.elections
            .values()
            .filter(|e| e.confirmed().is_none())
            .count()
    }

    /// The election for a root, if any.
    pub fn election(&self, root: &ElectionRoot) -> Option<&Election> {
        self.elections.get(root)
    }

    /// Whether this is the first time gossip carried `vote`: the relay
    /// dedup. A vote this node casts itself is tallied without being
    /// heard, so its first echo still counts as a first hearing.
    pub(crate) fn first_hearing(&mut self, vote: &Vote) -> bool {
        self.elections
            .entry(vote.root)
            .or_default()
            .hear(vote.representative, vote.candidate)
    }

    /// Records a vote and attempts confirmation against
    /// `total_weight`. Returns the newly confirmed winner, if this vote
    /// concluded the election.
    pub fn tally(&mut self, vote: Vote, weight: u64, total_weight: u64) -> Option<Digest> {
        let quorum = self.quorum_weight(total_weight);
        let election = self.elections.entry(vote.root).or_default();
        let already = election.confirmed().is_some();
        if election.vote(vote.representative, weight, vote.candidate) {
            self.flips += 1;
        }
        let result = election.try_confirm(quorum);
        if already {
            None
        } else {
            result
        }
    }

    /// Whether a candidate has been confirmed for its root.
    pub fn is_confirmed(&self, root: &ElectionRoot, candidate: &Digest) -> bool {
        self.elections
            .get(root)
            .and_then(Election::confirmed)
            .is_some_and(|winner| winner == *candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_crypto::sha256::sha256;

    fn rep(label: &str) -> Address {
        Address::from_label(label)
    }

    fn root() -> ElectionRoot {
        (Address::from_label("account"), sha256(b"previous"))
    }

    #[test]
    fn single_candidate_accumulates() {
        let mut e = Election::new();
        let candidate = sha256(b"block");
        e.vote(rep("a"), 100, candidate);
        e.vote(rep("b"), 50, candidate);
        assert_eq!(e.leader(), Some((candidate, 150)));
        assert_eq!(e.candidate_count(), 1);
        assert_eq!(e.total_cast(), 150);
    }

    #[test]
    fn duplicate_vote_not_double_counted() {
        let mut e = Election::new();
        let candidate = sha256(b"block");
        e.vote(rep("a"), 100, candidate);
        e.vote(rep("a"), 100, candidate);
        assert_eq!(e.leader(), Some((candidate, 100)));
    }

    #[test]
    fn conflict_resolved_by_weight() {
        // "The winning transaction is the one that gained the most
        // votes with regards to the voters weight."
        let mut e = Election::new();
        let honest = sha256(b"honest");
        let attack = sha256(b"attack");
        e.vote(rep("whale"), 900, honest);
        e.vote(rep("fish-1"), 50, attack);
        e.vote(rep("fish-2"), 40, attack);
        assert_eq!(e.leader(), Some((honest, 900)));
        assert_eq!(e.candidate_count(), 2);
    }

    #[test]
    fn revote_moves_weight() {
        let mut e = Election::new();
        let a = sha256(b"a");
        let b = sha256(b"b");
        e.vote(rep("r"), 100, a);
        assert_eq!(e.leader(), Some((a, 100)));
        e.vote(rep("r"), 100, b);
        assert_eq!(e.leader(), Some((b, 100)));
        let a_tally = e.tallies.get(&a).copied().unwrap_or(0);
        assert_eq!(a_tally, 0);
    }

    #[test]
    fn confirmation_requires_quorum() {
        let mut e = Election::new();
        let candidate = sha256(b"block");
        e.vote(rep("a"), 400, candidate);
        assert_eq!(e.try_confirm(501), None);
        e.vote(rep("b"), 200, candidate);
        assert_eq!(e.try_confirm(501), Some(candidate));
        // Sticky once confirmed.
        e.vote(rep("c"), 10_000, sha256(b"late-rival"));
        assert_eq!(e.try_confirm(501), Some(candidate));
        assert_eq!(e.confirmed(), Some(candidate));
    }

    #[test]
    fn empty_election_confirms_nothing() {
        let mut e = Election::new();
        assert_eq!(e.try_confirm(1), None);
        assert_eq!(e.leader(), None);
    }

    #[test]
    fn manager_tally_and_confirm() {
        let mut m = ElectionManager::new(0.5);
        let candidate = sha256(b"block");
        let vote = |r: &str| Vote {
            representative: rep(r),
            root: root(),
            candidate,
        };
        // Total weight 1000 -> quorum 500.
        assert_eq!(m.tally(vote("a"), 300, 1000), None);
        assert_eq!(m.live_count(), 1);
        assert_eq!(m.tally(vote("b"), 250, 1000), Some(candidate));
        assert!(m.is_confirmed(&root(), &candidate));
        assert_eq!(m.live_count(), 0);
        // Further votes return None (already concluded).
        assert_eq!(m.tally(vote("c"), 999, 1000), None);
    }

    #[test]
    fn quorum_weight_rounds_up() {
        let m = ElectionManager::new(0.5);
        assert_eq!(m.quorum_weight(1000), 500);
        assert_eq!(m.quorum_weight(1001), 501);
        let strict = ElectionManager::new(0.67);
        assert_eq!(strict.quorum_weight(100), 67);
    }

    #[test]
    #[should_panic(expected = "quorum fraction out of range")]
    fn quorum_fraction_validated() {
        ElectionManager::new(0.0);
    }

    #[test]
    fn first_hearing_is_exact_per_representative_candidate_and_root() {
        let mut m = ElectionManager::new(0.5);
        let (x, y) = (sha256(b"x"), sha256(b"y"));
        let vote = |r: &str, root: ElectionRoot, candidate| Vote {
            representative: rep(r),
            root,
            candidate,
        };
        let other_root = (Address::from_label("account"), sha256(b"other"));
        // Tallying a vote (as a node does with its own) does not mark
        // it heard: its first echo is still a first hearing.
        m.tally(vote("a", root(), x), 100, 1000);
        assert!(m.first_hearing(&vote("a", root(), x)));
        // A repeat is a duplicate.
        assert!(!m.first_hearing(&vote("a", root(), x)));
        // The same representative backing another candidate is new.
        assert!(m.first_hearing(&vote("a", root(), y)));
        // Flipping back to the first candidate is a duplicate.
        assert!(!m.first_hearing(&vote("a", root(), x)));
        // Another representative, or the same pair under another root,
        // is not conflated.
        assert!(m.first_hearing(&vote("b", root(), x)));
        assert!(m.first_hearing(&vote("a", other_root, x)));
        assert!(!m.first_hearing(&vote("a", other_root, x)));
    }

    #[test]
    fn vote_reports_leader_flips() {
        let mut e = Election::new();
        let a = sha256(b"a");
        let b = sha256(b"b");
        // First vote establishes a leader — no flip.
        assert!(!e.vote(rep("r1"), 100, a));
        // A rival overtaking the leader flips it.
        assert!(e.vote(rep("r2"), 200, b));
        // Reinforcing the current leader does not.
        assert!(!e.vote(rep("r3"), 50, b));
        // The original voter defecting to the loser flips it back.
        assert!(e.vote(rep("r2"), 200, a));
    }

    #[test]
    fn manager_counts_flips_across_elections() {
        let mut m = ElectionManager::new(0.9);
        let a = sha256(b"a");
        let b = sha256(b"b");
        let vote = |r: &str, candidate| Vote {
            representative: rep(r),
            root: root(),
            candidate,
        };
        m.tally(vote("r1", a), 100, 1000);
        assert_eq!(m.vote_flips(), 0);
        m.tally(vote("r2", b), 200, 1000);
        assert_eq!(m.vote_flips(), 1);
        m.tally(vote("r3", a), 500, 1000);
        assert_eq!(m.vote_flips(), 2);
    }

    #[test]
    fn deterministic_tie_break() {
        let mut e = Election::new();
        let a = sha256(b"a");
        let b = sha256(b"b");
        e.vote(rep("r1"), 100, a);
        e.vote(rep("r2"), 100, b);
        let (leader, _) = e.leader().unwrap();
        // Ties break toward the smaller hash, deterministically.
        assert_eq!(leader, a.min(b));
    }
}
