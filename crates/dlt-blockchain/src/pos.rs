//! Proof-of-stake: stake-weighted election, slashing, and checkpoint
//! finality (paper §III-A-2 and §IV-A).
//!
//! "Validators deposit their stake in the smart contract, which in turn
//! picks the validator allowed to create a block. The more tokens a
//! validator stakes, it has a higher chance to create the next block.
//! If an incorrect block is submitted …, the validator's stake is
//! burned." — [`ValidatorSet`] implements exactly that: deposits,
//! deterministic stake-weighted proposer selection per slot, and
//! burning via [`ValidatorSet::slash`].
//!
//! [`EquivocationDetector`] catches the canonical slashable offence — a
//! proposer signing two different blocks for the same slot — and
//! [`CasperFfg`] implements the announced finality gadget ("Casper FFG
//! …, a proof of stake based finality system that is supposed to
//! introduce non-reversible checkpoints"): validators cast
//! source→target checkpoint votes; a checkpoint with ≥⅔ of total stake
//! is *justified*, and a justified checkpoint whose direct child
//! checkpoint is justified becomes *finalized*.

use std::collections::{BTreeMap, BTreeSet};

use dlt_crypto::keys::Address;
use dlt_crypto::sha256::Sha256;
use dlt_crypto::Digest;

/// The staked validator registry.
#[derive(Debug, Clone, Default)]
pub struct ValidatorSet {
    deposits: BTreeMap<Address, u64>,
    slashed: BTreeSet<Address>,
    burned_total: u64,
}

impl ValidatorSet {
    /// Creates an empty validator set.
    pub fn new() -> Self {
        ValidatorSet::default()
    }

    /// Deposits stake for a validator (adds to any existing deposit).
    ///
    /// Slashed validators cannot re-enter.
    pub fn deposit(&mut self, validator: Address, amount: u64) -> bool {
        if self.slashed.contains(&validator) {
            return false;
        }
        *self.deposits.entry(validator).or_insert(0) += amount;
        true
    }

    /// Withdraws a validator's full deposit (exit), returning it.
    pub fn withdraw(&mut self, validator: &Address) -> u64 {
        self.deposits.remove(validator).unwrap_or(0)
    }

    /// A validator's current stake.
    pub fn stake_of(&self, validator: &Address) -> u64 {
        self.deposits.get(validator).copied().unwrap_or(0)
    }

    /// Sum of all active stake.
    pub fn total_stake(&self) -> u64 {
        self.deposits.values().sum()
    }

    /// Number of active validators.
    pub fn len(&self) -> usize {
        self.deposits.len()
    }

    /// Whether no validator has stake.
    pub fn is_empty(&self) -> bool {
        self.deposits.is_empty()
    }

    /// Total stake burned by slashing so far.
    pub fn burned_total(&self) -> u64 {
        self.burned_total
    }

    /// Iterates `(validator, stake)` pairs in address order.
    pub fn stakes(&self) -> impl Iterator<Item = (Address, u64)> + '_ {
        self.deposits.iter().map(|(a, s)| (*a, *s))
    }

    /// Whether a validator has been slashed.
    pub fn is_slashed(&self, validator: &Address) -> bool {
        self.slashed.contains(validator)
    }

    /// Burns a validator's entire deposit — "burning stake has the same
    /// economic effect as dismantling an attacker's mining equipment".
    /// Returns the burned amount.
    pub fn slash(&mut self, validator: &Address) -> u64 {
        let burned = self.deposits.remove(validator).unwrap_or(0);
        self.slashed.insert(*validator);
        self.burned_total += burned;
        burned
    }

    /// Deterministically selects the slot's proposer, weighted by
    /// stake: validator `v` wins with probability `stake(v) / total`.
    /// The seed is typically `H(parent block id ‖ slot)` so every node
    /// computes the same winner.
    ///
    /// Returns `None` when no stake is deposited (no blocks can be
    /// proposed — the PoS analogue of "if there are no miners, no
    /// blocks can be mined").
    pub fn select_proposer(&self, parent: &Digest, slot: u64) -> Option<Address> {
        let total = self.total_stake();
        if total == 0 {
            return None;
        }
        let mut h = Sha256::new();
        h.update(b"pos-proposer");
        h.update(parent.as_bytes());
        h.update(&slot.to_be_bytes());
        let point = h.finalize().prefix_u64() % total;
        let mut cursor = 0u64;
        for (validator, stake) in &self.deposits {
            cursor += stake;
            if point < cursor {
                return Some(*validator);
            }
        }
        unreachable!("point < total implies a validator is selected")
    }
}

/// Evidence that a proposer equivocated: two different blocks signed
/// for the same slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivocationEvidence {
    /// The offending proposer.
    pub proposer: Address,
    /// The slot in which both blocks were produced.
    pub slot: u64,
    /// The first observed block.
    pub first: Digest,
    /// The conflicting block.
    pub second: Digest,
}

/// Watches proposals and reports double-signing.
#[derive(Debug, Clone, Default)]
pub struct EquivocationDetector {
    seen: BTreeMap<(Address, u64), Digest>,
}

impl EquivocationDetector {
    /// Creates an empty detector.
    pub fn new() -> Self {
        EquivocationDetector::default()
    }

    /// Records a proposal; returns evidence if this proposer already
    /// produced a *different* block for the slot.
    pub fn observe(
        &mut self,
        proposer: Address,
        slot: u64,
        block: Digest,
    ) -> Option<EquivocationEvidence> {
        match self.seen.get(&(proposer, slot)) {
            None => {
                self.seen.insert((proposer, slot), block);
                None
            }
            Some(existing) if *existing == block => None,
            Some(existing) => Some(EquivocationEvidence {
                proposer,
                slot,
                first: *existing,
                second: block,
            }),
        }
    }
}

/// A checkpoint: the block starting an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Checkpoint {
    /// Epoch number (block height / epoch length).
    pub epoch: u64,
    /// The checkpoint block id.
    pub block: Digest,
}

/// A Casper FFG vote: a validator attests a source→target checkpoint
/// link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FfgVote {
    /// The voting validator.
    pub validator: Address,
    /// A justified checkpoint the vote builds on.
    pub source: Checkpoint,
    /// The checkpoint being justified.
    pub target: Checkpoint,
}

/// Why a vote was rejected or what offence it constituted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FfgOutcome {
    /// Vote accepted, nothing new justified.
    Accepted,
    /// The target checkpoint reached ⅔ stake and is now justified.
    Justified(Checkpoint),
    /// Justifying the target also finalized the source (consecutive
    /// epochs) — the paper's "non-reversible checkpoint".
    Finalized {
        /// The newly finalized checkpoint.
        finalized: Checkpoint,
        /// The justified child that finalized it.
        justified: Checkpoint,
    },
    /// The voter is not a (non-slashed) validator.
    UnknownValidator,
    /// The source checkpoint is not justified.
    SourceNotJustified,
    /// Slashable: two votes with the same target epoch but different
    /// targets.
    DoubleVote,
    /// Slashable: a vote surrounding an earlier vote
    /// (`s1 < s2 < t2 < t1`).
    SurroundVote,
}

/// The Casper FFG finality gadget.
#[derive(Debug, Clone)]
pub struct CasperFfg {
    validators: ValidatorSet,
    /// Stake and voters accumulated per (source, target) link.
    votes: BTreeMap<(Checkpoint, Checkpoint), (u64, BTreeSet<Address>)>,
    justified: BTreeSet<Checkpoint>,
    finalized: Vec<Checkpoint>,
    /// Per-validator vote history for slashing-condition checks.
    history: BTreeMap<Address, Vec<FfgVote>>,
}

impl CasperFfg {
    /// Creates the gadget with the genesis checkpoint justified and
    /// finalized.
    pub fn new(validators: ValidatorSet, genesis: Digest) -> Self {
        let genesis_cp = Checkpoint {
            epoch: 0,
            block: genesis,
        };
        CasperFfg {
            validators,
            votes: BTreeMap::new(),
            justified: BTreeSet::from([genesis_cp]),
            finalized: vec![genesis_cp],
            history: BTreeMap::new(),
        }
    }

    /// The validator registry (for deposits/slashing around the gadget).
    pub fn validators(&self) -> &ValidatorSet {
        &self.validators
    }

    /// Mutable validator registry access.
    pub fn validators_mut(&mut self) -> &mut ValidatorSet {
        &mut self.validators
    }

    /// Whether a checkpoint is justified.
    pub fn is_justified(&self, cp: &Checkpoint) -> bool {
        self.justified.contains(cp)
    }

    /// Whether a checkpoint is finalized.
    pub fn is_finalized(&self, cp: &Checkpoint) -> bool {
        self.finalized.contains(cp)
    }

    /// The most recently finalized checkpoint.
    pub fn last_finalized(&self) -> Checkpoint {
        *self.finalized.last().expect("genesis is always finalized")
    }

    /// Processes a vote: slashing conditions first (double vote,
    /// surround vote — both burn the offender's stake immediately),
    /// then justification/finalization accounting.
    pub fn process_vote(&mut self, vote: FfgVote) -> FfgOutcome {
        let stake = self.validators.stake_of(&vote.validator);
        if stake == 0 {
            return FfgOutcome::UnknownValidator;
        }
        // Slashing condition checks against this validator's history.
        if let Some(prior_votes) = self.history.get(&vote.validator) {
            for prior in prior_votes {
                let double = prior.target.epoch == vote.target.epoch && prior.target != vote.target;
                let surrounds = |outer: &FfgVote, inner: &FfgVote| {
                    outer.source.epoch < inner.source.epoch
                        && inner.target.epoch < outer.target.epoch
                };
                if double {
                    self.validators.slash(&vote.validator);
                    return FfgOutcome::DoubleVote;
                }
                if surrounds(&vote, prior) || surrounds(prior, &vote) {
                    self.validators.slash(&vote.validator);
                    return FfgOutcome::SurroundVote;
                }
            }
        }
        if !self.justified.contains(&vote.source) {
            return FfgOutcome::SourceNotJustified;
        }

        self.history.entry(vote.validator).or_default().push(vote);
        let entry = self
            .votes
            .entry((vote.source, vote.target))
            .or_insert((0, BTreeSet::new()));
        if !entry.1.insert(vote.validator) {
            return FfgOutcome::Accepted; // duplicate identical vote
        }
        entry.0 += stake;

        let total = self.validators.total_stake();
        // ⅔ supermajority (strictly greater than 2/3 of remaining
        // active stake, computed without floating point).
        if entry.0 * 3 >= total * 2 && !self.justified.contains(&vote.target) {
            self.justified.insert(vote.target);
            if vote.target.epoch == vote.source.epoch + 1 && !self.is_finalized(&vote.source) {
                self.finalized.push(vote.source);
                return FfgOutcome::Finalized {
                    finalized: vote.source,
                    justified: vote.target,
                };
            }
            return FfgOutcome::Justified(vote.target);
        }
        FfgOutcome::Accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_crypto::sha256::sha256;

    fn addr(label: &str) -> Address {
        Address::from_label(label)
    }

    fn cp(epoch: u64, label: &str) -> Checkpoint {
        Checkpoint {
            epoch,
            block: sha256(label.as_bytes()),
        }
    }

    #[test]
    fn deposits_accumulate() {
        let mut set = ValidatorSet::new();
        assert!(set.deposit(addr("a"), 100));
        assert!(set.deposit(addr("a"), 50));
        assert!(set.deposit(addr("b"), 25));
        assert_eq!(set.stake_of(&addr("a")), 150);
        assert_eq!(set.total_stake(), 175);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn withdraw_removes_stake() {
        let mut set = ValidatorSet::new();
        set.deposit(addr("a"), 100);
        assert_eq!(set.withdraw(&addr("a")), 100);
        assert_eq!(set.total_stake(), 0);
        assert_eq!(set.withdraw(&addr("a")), 0);
    }

    #[test]
    fn slash_burns_and_bans() {
        let mut set = ValidatorSet::new();
        set.deposit(addr("evil"), 500);
        assert_eq!(set.slash(&addr("evil")), 500);
        assert_eq!(set.total_stake(), 0);
        assert_eq!(set.burned_total(), 500);
        assert!(set.is_slashed(&addr("evil")));
        // Cannot re-enter.
        assert!(!set.deposit(addr("evil"), 100));
        assert_eq!(set.total_stake(), 0);
    }

    #[test]
    fn proposer_selection_is_deterministic() {
        let mut set = ValidatorSet::new();
        set.deposit(addr("a"), 10);
        set.deposit(addr("b"), 10);
        let parent = sha256(b"parent");
        let p1 = set.select_proposer(&parent, 5).unwrap();
        let p2 = set.select_proposer(&parent, 5).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn empty_set_selects_nobody() {
        let set = ValidatorSet::new();
        assert_eq!(set.select_proposer(&sha256(b"p"), 0), None);
    }

    #[test]
    fn proposer_frequency_tracks_stake() {
        // "The more tokens a validator stakes, it has a higher chance to
        // create the next block."
        let mut set = ValidatorSet::new();
        set.deposit(addr("whale"), 900);
        set.deposit(addr("fish"), 100);
        let mut whale_wins = 0;
        let slots = 5000u64;
        for slot in 0..slots {
            let parent = sha256(&slot.to_be_bytes());
            if set.select_proposer(&parent, slot).unwrap() == addr("whale") {
                whale_wins += 1;
            }
        }
        let share = whale_wins as f64 / slots as f64;
        assert!((share - 0.9).abs() < 0.03, "whale share {share}");
    }

    #[test]
    fn equivocation_detected() {
        let mut det = EquivocationDetector::new();
        assert!(det.observe(addr("p"), 3, sha256(b"block-a")).is_none());
        // Same block again: fine (gossip duplicates).
        assert!(det.observe(addr("p"), 3, sha256(b"block-a")).is_none());
        // Different block, same slot: evidence.
        let ev = det.observe(addr("p"), 3, sha256(b"block-b")).unwrap();
        assert_eq!(ev.proposer, addr("p"));
        assert_eq!(ev.slot, 3);
        assert_ne!(ev.first, ev.second);
        // Different slot: fine.
        assert!(det.observe(addr("p"), 4, sha256(b"block-c")).is_none());
    }

    fn gadget(stakes: &[(&str, u64)]) -> (CasperFfg, Checkpoint) {
        let mut set = ValidatorSet::new();
        for (name, stake) in stakes {
            set.deposit(addr(name), *stake);
        }
        let genesis = sha256(b"genesis");
        let ffg = CasperFfg::new(set, genesis);
        (
            ffg,
            Checkpoint {
                epoch: 0,
                block: genesis,
            },
        )
    }

    #[test]
    fn supermajority_justifies_and_finalizes() {
        let (mut ffg, genesis) = gadget(&[("a", 1), ("b", 1), ("c", 1)]);
        let target = cp(1, "epoch1");
        let vote = |v: &str| FfgVote {
            validator: addr(v),
            source: genesis,
            target,
        };
        assert_eq!(ffg.process_vote(vote("a")), FfgOutcome::Accepted);
        // Two of three = 2/3: justified, and source (epoch 0, already
        // final) isn't re-finalized; target is consecutive so source
        // would finalize — but genesis is already finalized, so plain
        // justification is reported.
        let outcome = ffg.process_vote(vote("b"));
        assert_eq!(outcome, FfgOutcome::Justified(target));
        assert!(ffg.is_justified(&target));
    }

    #[test]
    fn consecutive_justification_finalizes_source() {
        let (mut ffg, genesis) = gadget(&[("a", 1), ("b", 1), ("c", 1)]);
        let e1 = cp(1, "epoch1");
        let e2 = cp(2, "epoch2");
        for v in ["a", "b", "c"] {
            ffg.process_vote(FfgVote {
                validator: addr(v),
                source: genesis,
                target: e1,
            });
        }
        assert!(ffg.is_justified(&e1));
        let mut outcomes = Vec::new();
        for v in ["a", "b"] {
            outcomes.push(ffg.process_vote(FfgVote {
                validator: addr(v),
                source: e1,
                target: e2,
            }));
        }
        assert_eq!(
            outcomes[1],
            FfgOutcome::Finalized {
                finalized: e1,
                justified: e2
            }
        );
        assert!(ffg.is_finalized(&e1));
        assert_eq!(ffg.last_finalized(), e1);
    }

    #[test]
    fn minority_never_justifies() {
        let (mut ffg, genesis) = gadget(&[("a", 1), ("b", 1), ("c", 1)]);
        let target = cp(1, "epoch1");
        assert_eq!(
            ffg.process_vote(FfgVote {
                validator: addr("a"),
                source: genesis,
                target
            }),
            FfgOutcome::Accepted
        );
        assert!(!ffg.is_justified(&target));
    }

    #[test]
    fn unknown_validator_rejected() {
        let (mut ffg, genesis) = gadget(&[("a", 1)]);
        assert_eq!(
            ffg.process_vote(FfgVote {
                validator: addr("stranger"),
                source: genesis,
                target: cp(1, "t")
            }),
            FfgOutcome::UnknownValidator
        );
    }

    #[test]
    fn unjustified_source_rejected() {
        let (mut ffg, _genesis) = gadget(&[("a", 1)]);
        assert_eq!(
            ffg.process_vote(FfgVote {
                validator: addr("a"),
                source: cp(5, "nowhere"),
                target: cp(6, "t")
            }),
            FfgOutcome::SourceNotJustified
        );
    }

    #[test]
    fn double_vote_slashes() {
        let (mut ffg, genesis) = gadget(&[("a", 10), ("b", 10), ("c", 10)]);
        ffg.process_vote(FfgVote {
            validator: addr("a"),
            source: genesis,
            target: cp(1, "t1"),
        });
        // Same target epoch, different block: slash.
        let outcome = ffg.process_vote(FfgVote {
            validator: addr("a"),
            source: genesis,
            target: cp(1, "t1-conflicting"),
        });
        assert_eq!(outcome, FfgOutcome::DoubleVote);
        assert!(ffg.validators().is_slashed(&addr("a")));
        assert_eq!(ffg.validators().total_stake(), 20);
        assert_eq!(ffg.validators().burned_total(), 10);
    }

    #[test]
    fn surround_vote_slashes() {
        let (mut ffg, genesis) = gadget(&[("a", 1), ("b", 1), ("c", 1)]);
        // Justify epochs 1 and 2 with honest votes from b and c … and a.
        let e1 = cp(1, "e1");
        let e2 = cp(2, "e2");
        for v in ["a", "b", "c"] {
            ffg.process_vote(FfgVote {
                validator: addr(v),
                source: genesis,
                target: e1,
            });
        }
        // a votes e1 -> e2 (inner vote).
        ffg.process_vote(FfgVote {
            validator: addr("a"),
            source: e1,
            target: e2,
        });
        // a then votes genesis -> e3, surrounding (e1 -> e2): slash.
        let outcome = ffg.process_vote(FfgVote {
            validator: addr("a"),
            source: genesis,
            target: cp(3, "e3"),
        });
        assert_eq!(outcome, FfgOutcome::SurroundVote);
        assert!(ffg.validators().is_slashed(&addr("a")));
    }

    #[test]
    fn duplicate_vote_counts_once() {
        let (mut ffg, genesis) = gadget(&[("a", 1), ("b", 1), ("c", 1)]);
        let target = cp(1, "t");
        let vote = FfgVote {
            validator: addr("a"),
            source: genesis,
            target,
        };
        ffg.process_vote(vote);
        ffg.process_vote(vote); // identical duplicate: no double-vote, no extra stake
        assert!(!ffg.is_justified(&target));
        assert!(!ffg.validators().is_slashed(&addr("a")));
    }
}
