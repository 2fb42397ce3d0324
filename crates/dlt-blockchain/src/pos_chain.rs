//! The assembled proof-of-stake chain (paper §III-A-2, §IV-A).
//!
//! [`PosChain`] composes the Ethereum-like account chain with the PoS
//! machinery of [`pos`](crate::pos): 4-second slots whose proposer is
//! drawn stake-weighted from the validator set, Casper-FFG checkpoint
//! votes at epoch boundaries, equivocation slashing, and — the paper's
//! "non-reversible checkpoints, guaranteeing block inclusion" — a fork
//! choice that refuses any reorg of a finalized block.

use dlt_crypto::keys::Address;
use dlt_crypto::Digest;

use crate::account::AccountTx;
use crate::block::Block;
use crate::chain::InsertOutcome;
use crate::ethereum::{EthereumChain, EthereumError, EthereumParams};
use crate::pos::{
    CasperFfg, Checkpoint, EquivocationDetector, EquivocationEvidence, FfgOutcome, FfgVote,
    ValidatorSet,
};

/// PoS-specific parameters.
#[derive(Debug, Clone, Copy)]
pub struct PosParams {
    /// Slot duration in microseconds (paper: PoS "should decrease
    /// Ethereum's block generation time to 4 seconds or lower").
    pub slot_micros: u64,
    /// Blocks per Casper FFG epoch.
    pub epoch_length: u64,
}

impl Default for PosParams {
    fn default() -> Self {
        PosParams {
            slot_micros: 4_000_000,
            epoch_length: 32,
        }
    }
}

/// Errors specific to the PoS layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PosChainError {
    /// The block's proposer is not the slot's elected validator.
    WrongProposer {
        /// Who should have proposed.
        expected: Address,
    },
    /// The block would reorg a finalized checkpoint ("non-reversible").
    RevertsFinalized,
    /// No validator has stake — no blocks can be proposed.
    NoValidators,
    /// The underlying chain rejected the block.
    Chain(EthereumError),
}

impl std::fmt::Display for PosChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PosChainError::WrongProposer { expected } => {
                write!(f, "wrong proposer: slot belongs to {expected}")
            }
            PosChainError::RevertsFinalized => f.write_str("reorg would revert a finalized block"),
            PosChainError::NoValidators => f.write_str("no staked validators"),
            PosChainError::Chain(e) => write!(f, "chain rejection: {e}"),
        }
    }
}

impl std::error::Error for PosChainError {}

/// The proof-of-stake chain.
pub struct PosChain {
    chain: EthereumChain,
    ffg: CasperFfg,
    detector: EquivocationDetector,
    params: PosParams,
    /// Height of the newest finalized block (reorg floor).
    finalized_height: u64,
}

impl PosChain {
    /// Creates a PoS chain with the given genesis allocations and
    /// validator deposits.
    pub fn new(
        eth_params: EthereumParams,
        pos_params: PosParams,
        allocations: &[(Address, u64)],
        validators: &[(Address, u64)],
    ) -> Self {
        let chain = EthereumChain::new(eth_params, allocations);
        let mut set = ValidatorSet::new();
        for (validator, stake) in validators {
            set.deposit(*validator, *stake);
        }
        let genesis = chain.chain().genesis();
        PosChain {
            ffg: CasperFfg::new(set, genesis),
            chain,
            detector: EquivocationDetector::new(),
            params: pos_params,
            finalized_height: 0,
        }
    }

    /// The wrapped account chain.
    pub fn chain(&self) -> &EthereumChain {
        &self.chain
    }

    /// The finality gadget (checkpoints, validator registry).
    pub fn ffg(&self) -> &CasperFfg {
        &self.ffg
    }

    /// Height of the newest finalized block.
    pub fn finalized_height(&self) -> u64 {
        self.finalized_height
    }

    /// The validator entitled to propose in `slot` on top of `parent`
    /// (the schedule is seeded by the parent block id, so every node
    /// extending the same branch agrees on it).
    pub fn slot_proposer_on(&self, parent: &Digest, slot: u64) -> Option<Address> {
        self.ffg.validators().select_proposer(parent, slot)
    }

    /// The proposer for `slot` on the current tip.
    pub fn slot_proposer(&self, slot: u64) -> Option<Address> {
        self.slot_proposer_on(&self.chain.chain().tip(), slot)
    }

    /// Submits a transaction to the mempool.
    pub fn submit_tx(&mut self, tx: AccountTx) -> bool {
        self.chain.submit_tx(tx)
    }

    /// Advances one slot: the elected proposer produces a block at the
    /// slot boundary; at epoch boundaries all honest validators cast
    /// FFG votes, possibly justifying/finalizing checkpoints.
    ///
    /// Returns the produced block.
    ///
    /// # Errors
    ///
    /// [`PosChainError::NoValidators`] when no stake is deposited.
    pub fn advance_slot(&mut self, slot: u64) -> Result<Block<AccountTx>, PosChainError> {
        let proposer = self
            .slot_proposer(slot)
            .ok_or(PosChainError::NoValidators)?;
        let timestamp = slot * self.params.slot_micros;
        let block = self.chain.produce_block(proposer, timestamp);
        self.detector.observe(proposer, slot, block.id());

        // Epoch boundary: honest validators vote the chain's newest
        // checkpoint pair.
        let height = block.header.height;
        if height.is_multiple_of(self.params.epoch_length) {
            self.cast_epoch_votes(height);
        }
        Ok(block)
    }

    /// All validators vote `last justified → current checkpoint`.
    fn cast_epoch_votes(&mut self, height: u64) {
        let epoch = height / self.params.epoch_length;
        let block = self
            .chain
            .chain()
            .active_at(height)
            .expect("checkpoint height is active");
        let target = Checkpoint { epoch, block };
        let source = self.latest_justified(epoch);
        let voters: Vec<Address> = self
            .ffg
            .validators()
            .stakes()
            .map(|(validator, _)| validator)
            .collect();
        for validator in voters {
            let outcome = self.ffg.process_vote(FfgVote {
                validator,
                source,
                target,
            });
            if let FfgOutcome::Finalized { finalized, .. } = outcome {
                let header_height = finalized.epoch * self.params.epoch_length;
                self.finalized_height = self.finalized_height.max(header_height);
            }
        }
    }

    /// The justified checkpoint with the highest epoch below `epoch`.
    fn latest_justified(&self, epoch: u64) -> Checkpoint {
        let mut best = Checkpoint {
            epoch: 0,
            block: self.chain.chain().genesis(),
        };
        for e in (0..epoch).rev() {
            let height = e * self.params.epoch_length;
            if let Some(block) = self.chain.chain().active_at(height) {
                let cp = Checkpoint { epoch: e, block };
                if self.ffg.is_justified(&cp) {
                    best = cp;
                    break;
                }
            }
        }
        best
    }

    /// Integrates an externally produced block, enforcing the slot
    /// proposer, equivocation slashing, and — crucially — finality:
    /// a branch that would revert a finalized block is rejected no
    /// matter how long it is.
    pub fn receive_block(
        &mut self,
        block: Block<AccountTx>,
        slot: u64,
    ) -> Result<InsertOutcome, PosChainError> {
        let expected = self
            .slot_proposer_on(&block.header.parent, slot)
            .ok_or(PosChainError::NoValidators)?;
        if block.header.proposer != expected {
            return Err(PosChainError::WrongProposer { expected });
        }
        if let Some(evidence) = self.detector.observe(expected, slot, block.id()) {
            self.slash_for(&evidence);
            // The equivocating block is still structurally processable;
            // real designs orphan it — we reject it outright.
            return Err(PosChainError::Chain(EthereumError::Structure(
                crate::chain::BlockError::UnexpectedGenesis,
            )));
        }

        // Finality veto BEFORE fork choice can switch: if this block's
        // branch would out-work the tip but forks below the finalized
        // height, refuse it — "non-reversible checkpoints".
        let store = self.chain.chain();
        if let Some(parent_work) = store.chainwork(&block.header.parent) {
            let new_work = parent_work + u128::from(block.header.difficulty);
            let tip_work = store.chainwork(&store.tip()).expect("tip is stored");
            if new_work > tip_work && !store.is_active(&block.header.parent) {
                // Walk to the fork point.
                let mut cursor = block.header.parent;
                while !store.is_active(&cursor) {
                    cursor = store
                        .header(&cursor)
                        .expect("side-branch ancestors are stored")
                        .parent;
                }
                let fork_height = store.header(&cursor).expect("active").height;
                if fork_height < self.finalized_height {
                    return Err(PosChainError::RevertsFinalized);
                }
            }
        }
        let outcome = self
            .chain
            .receive_block(block)
            .map_err(PosChainError::Chain)?;
        // Post-hoc enforcement: an orphan cascade can assemble a branch
        // whose total work only exceeds the tip once a missing parent
        // arrives, bypassing the pre-veto. Undo any reorg that touched
        // finalized history.
        if let InsertOutcome::Reorged {
            reverted, applied, ..
        } = &outcome
        {
            let reverts_finalized = reverted.iter().any(|id| {
                self.chain
                    .chain()
                    .header(id)
                    .is_some_and(|h| h.height <= self.finalized_height)
            });
            if reverts_finalized {
                if let Some(first_applied) = applied.first() {
                    self.chain.invalidate(first_applied);
                }
                return Err(PosChainError::RevertsFinalized);
            }
        }
        Ok(outcome)
    }

    /// Slashes a proposer caught double-signing.
    pub fn slash_for(&mut self, evidence: &EquivocationEvidence) -> u64 {
        self.ffg.validators_mut().slash(&evidence.proposer)
    }

    /// Blocks per second this configuration produces (the §VI
    /// comparison: ~4 s slots vs 15 s PoW blocks).
    pub fn blocks_per_second(&self) -> f64 {
        1e6 / self.params.slot_micros as f64
    }

    /// The id of the block proposed at `height`, if active.
    pub fn block_at(&self, height: u64) -> Option<Digest> {
        self.chain.chain().active_at(height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::AccountHolder;

    fn setup(epoch_length: u64) -> (PosChain, AccountHolder) {
        setup_with_validators(epoch_length, 4)
    }

    fn setup_with_validators(epoch_length: u64, n: usize) -> (PosChain, AccountHolder) {
        let alice = AccountHolder::from_seed([1u8; 32], 8);
        let validators: Vec<(Address, u64)> = (0..n)
            .map(|i| (Address::from_label(&format!("validator-{i}")), 100))
            .collect();
        let chain = PosChain::new(
            EthereumParams::default(),
            PosParams {
                slot_micros: 4_000_000,
                epoch_length,
            },
            &[(alice.address(), 10_000_000)],
            &validators,
        );
        (chain, alice)
    }

    #[test]
    fn slots_produce_blocks_with_elected_proposers() {
        let (mut chain, mut alice) = setup(8);
        for slot in 1..=10u64 {
            chain.submit_tx(alice.transfer(Address::from_label("bob"), 10, 1));
            let expected = chain.slot_proposer(slot).unwrap();
            let block = chain.advance_slot(slot).unwrap();
            assert_eq!(block.header.proposer, expected);
        }
        assert_eq!(chain.chain().chain().tip_height(), 10);
        assert_eq!(chain.chain().balance(&Address::from_label("bob")), 100);
    }

    #[test]
    fn epochs_finalize_checkpoints() {
        let (mut chain, _) = setup(4);
        // Two epochs of blocks: epoch-1 checkpoint (height 4) justified
        // at height 4, finalized when height 8's votes justify epoch 2.
        for slot in 1..=8u64 {
            chain.advance_slot(slot).unwrap();
        }
        assert_eq!(chain.finalized_height(), 4);
        let cp_block = chain.block_at(4).unwrap();
        assert!(chain.ffg().is_finalized(&Checkpoint {
            epoch: 1,
            block: cp_block
        }));
    }

    #[test]
    fn finalized_blocks_cannot_be_reorged() {
        // A single validator keeps the proposer schedule unambiguous so
        // the test isolates the finality veto itself.
        let (mut chain, _) = setup_with_validators(2, 1);
        for slot in 1..=6u64 {
            chain.advance_slot(slot).unwrap();
        }
        assert!(chain.finalized_height() >= 2);
        let finalized_block = chain.block_at(chain.finalized_height()).unwrap();

        // A rival branch from genesis that is longer, produced by the
        // same (only) validator on its own chain copy with divergent
        // traffic. Feeding it with fresh slots avoids self-equivocation.
        let (mut rival, mut rival_alice) = setup_with_validators(2, 1);
        rival.submit_tx(rival_alice.transfer(Address::from_label("divergence"), 1, 1));
        for slot in 1..=8u64 {
            rival.advance_slot(slot).unwrap();
        }
        assert_ne!(rival.block_at(1), chain.block_at(1), "branches diverge");

        let rival_active: Vec<Digest> = rival.chain().chain().active_chain().to_vec();
        let mut rejected_finality = false;
        for (height, id) in rival_active.iter().enumerate().skip(1) {
            let block = rival.chain().chain().block(id).unwrap().clone();
            match chain.receive_block(block, 100 + height as u64) {
                Err(PosChainError::RevertsFinalized) => {
                    rejected_finality = true;
                    break;
                }
                Ok(InsertOutcome::Reorged { .. }) => {
                    panic!("finalized history was reorged");
                }
                _ => {}
            }
        }
        assert!(rejected_finality, "finality veto fired");
        // The finalized block is still active.
        assert!(chain.chain().chain().is_active(&finalized_block));
    }

    #[test]
    fn equivocation_is_slashed_on_receive() {
        let (mut chain, _) = setup(8);
        let slot = 1u64;
        let proposer = chain.slot_proposer(slot).unwrap();
        let stake_before = chain.ffg().validators().total_stake();
        // The proposer's legitimate block.
        chain.advance_slot(slot).unwrap();
        // …and a second, different block for the same slot.
        let mut second = chain
            .chain()
            .chain()
            .block(&chain.chain().chain().tip())
            .unwrap()
            .clone();
        second.header.timestamp_micros += 1;
        let second = Block::new(second.header.clone(), second.txs.clone());
        let result = chain.receive_block(second, slot);
        assert!(result.is_err());
        assert!(chain.ffg().validators().is_slashed(&proposer));
        assert!(chain.ffg().validators().total_stake() < stake_before);
    }

    #[test]
    fn pos_block_rate_beats_pow() {
        let (chain, _) = setup(32);
        assert_eq!(chain.blocks_per_second(), 0.25); // 4 s slots
                                                     // vs 1/15 for PoW Ethereum and 1/600 for Bitcoin.
        assert!(chain.blocks_per_second() > 1.0 / 15.0);
    }

    #[test]
    fn no_validators_no_blocks() {
        let alice = AccountHolder::from_seed([2u8; 32], 4);
        let mut chain = PosChain::new(
            EthereumParams::default(),
            PosParams::default(),
            &[(alice.address(), 1_000)],
            &[],
        );
        assert_eq!(chain.advance_slot(1), Err(PosChainError::NoValidators));
    }
}
