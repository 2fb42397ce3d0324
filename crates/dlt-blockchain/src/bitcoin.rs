//! The Bitcoin-like reference chain: UTXO ledger + most-work chain +
//! mempool in one stateful system (paper §II-A, §IV-A, §V-A, §VI-A).
//!
//! [`BitcoinChain`] is the single-process "reference implementation"
//! the experiments and examples drive: it assembles blocks (1 MB byte
//! capacity, 10-minute target by default), fully validates incoming
//! blocks against the UTXO set — including across reorgs, where a
//! semantically invalid winning branch is rejected and the store falls
//! back (`invalidateblock` behaviour) — and keeps per-block *undo data*
//! so the active chain can be rolled back, which is also what Bitcoin's
//! prune mode must retain (§V-A).

use std::collections::BTreeMap;

use dlt_crypto::keys::Address;
use dlt_crypto::Digest;

use crate::block::{Block, BlockHeader, LedgerTx, SharedBlock};
use crate::chain::{ChainStore, InsertOutcome};
use crate::mempool::Mempool;
use crate::utxo::{BlockStage, BlockUndo, UtxoError, UtxoLedger, UtxoTx};

/// Chain parameters (defaults follow the paper's Bitcoin description).
#[derive(Debug, Clone)]
pub struct BitcoinParams {
    /// Block subsidy paid to the coinbase.
    pub subsidy: u64,
    /// Maximum block size in bytes ("a maximum block size of 1 MB").
    pub max_block_bytes: u64,
    /// Blocks to wait before treating a transaction as confirmed
    /// ("six for Bitcoin").
    pub confirmation_depth: u64,
    /// Mempool capacity.
    pub mempool_capacity: usize,
}

impl Default for BitcoinParams {
    fn default() -> Self {
        BitcoinParams {
            subsidy: 50,
            max_block_bytes: 1_000_000,
            confirmation_depth: 6,
            mempool_capacity: 300_000,
        }
    }
}

/// Errors surfaced when a block fails full (structural + UTXO)
/// validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitcoinError {
    /// Chain-structure rejection.
    Structure(crate::chain::BlockError),
    /// UTXO-semantics rejection (names the offending block).
    Semantics {
        /// The invalid block.
        block: Digest,
        /// The underlying UTXO error.
        error: UtxoError,
    },
}

impl std::fmt::Display for BitcoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitcoinError::Structure(e) => write!(f, "structural rejection: {e}"),
            BitcoinError::Semantics { block, error } => {
                write!(f, "block {} invalid: {error}", block.short())
            }
        }
    }
}

impl std::error::Error for BitcoinError {}

/// The assembled Bitcoin-like system.
pub struct BitcoinChain {
    params: BitcoinParams,
    chain: ChainStore<UtxoTx>,
    ledger: UtxoLedger,
    /// Undo data for every block on the *active* chain (what prune
    /// mode keeps for recent blocks).
    undo: BTreeMap<Digest, BlockUndo>,
    mempool: Mempool<UtxoTx>,
}

impl BitcoinChain {
    /// Creates a chain whose genesis coinbase allocates the given
    /// `(address, amount)` pairs.
    pub fn new(params: BitcoinParams, allocations: &[(Address, u64)]) -> Self {
        let outputs: Vec<crate::utxo::TxOutput> = allocations
            .iter()
            .map(|(recipient, amount)| crate::utxo::TxOutput {
                amount: *amount,
                recipient: *recipient,
            })
            .collect();
        let mut coinbase = UtxoTx::coinbase(0, 0, Address::ZERO);
        coinbase.outputs = outputs;
        let genesis_header = BlockHeader {
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
        };
        let genesis = Block::new(genesis_header, vec![coinbase]);
        let mut ledger = UtxoLedger::new();
        let total: u64 = allocations.iter().map(|(_, v)| *v).sum();
        let undo_genesis = ledger
            .apply_block(&genesis, total)
            .expect("genesis allocation is valid by construction");
        let genesis_id = genesis.id();
        let mut undo = BTreeMap::new();
        undo.insert(genesis_id, undo_genesis);
        BitcoinChain {
            mempool: Mempool::new(params.mempool_capacity),
            params,
            chain: ChainStore::new(genesis, false),
            ledger,
            undo,
        }
    }

    /// The chain parameters.
    pub fn params(&self) -> &BitcoinParams {
        &self.params
    }

    /// The block store (fork structure, confirmations, sizes).
    pub fn chain(&self) -> &ChainStore<UtxoTx> {
        &self.chain
    }

    /// The UTXO set for the active chain.
    pub fn ledger(&self) -> &UtxoLedger {
        &self.ledger
    }

    /// The mempool.
    pub fn mempool(&self) -> &Mempool<UtxoTx> {
        &self.mempool
    }

    /// Total undo-data bytes currently retained (prune accounting).
    pub fn undo_bytes(&self) -> usize {
        self.undo.values().map(BlockUndo::size_bytes).sum()
    }

    /// Undo-data bytes for one active block, if retained.
    pub fn undo_size_of(&self, id: &Digest) -> Option<usize> {
        self.undo.get(id).map(BlockUndo::size_bytes)
    }

    /// Offers a transaction to the mempool. Returns the id it was
    /// pooled under (hashed here, once), or `None` if the pool refused
    /// it.
    pub fn submit_tx(&mut self, tx: UtxoTx) -> Option<Digest> {
        let id = tx.id();
        self.mempool.insert(id, tx).then_some(id)
    }

    /// Assembles, applies and stores a block on the current tip,
    /// crediting `miner`. Returns the block: the allocation the store
    /// holds, its transactions hashed once.
    ///
    /// # Panics
    ///
    /// Panics if mempool contents that were valid against the active
    /// ledger fail to apply (an internal-consistency bug).
    pub fn mine_block(&mut self, miner: Address, timestamp_micros: u64) -> SharedBlock<UtxoTx> {
        let parent_id = self.chain.tip();
        let parent = self.chain.header(&parent_id).expect("tip exists");
        let height = parent.height + 1;

        // Stage the fee-ordered candidates on the active ledger with the
        // check the block must pass; evict any that no longer apply
        // (e.g. inputs spent by a reorg) instead of failing the block.
        let mut stage = BlockStage::default();
        let mut txs = Vec::new();
        let mut fees = 0u64;
        let candidates = self
            .mempool
            .select_for_block(self.params.max_block_bytes.saturating_sub(200));
        for tx in candidates {
            match self.ledger.stage_tx(&mut stage, &tx) {
                Ok(fee) => {
                    fees += fee;
                    txs.push(tx);
                }
                Err(_) => self.mempool.remove_confirmed([tx.id()]),
            }
        }
        let coinbase = UtxoTx::coinbase(height, self.params.subsidy + fees, miner);
        txs.insert(0, coinbase);

        let header = BlockHeader {
            parent: parent_id,
            height,
            ..self.header_template(timestamp_micros)
        };
        let block = SharedBlock::build(header, txs);
        self.receive_block(block.clone())
            .expect("locally assembled blocks are valid");
        block
    }

    fn header_template(&self, timestamp_micros: u64) -> BlockHeader {
        BlockHeader {
            parent: Digest::ZERO,
            height: 0,
            merkle_root: Digest::ZERO,
            state_root: Digest::ZERO,
            receipts_root: Digest::ZERO,
            timestamp_micros,
            difficulty: 1,
            nonce: 0,
            gas_used: 0,
            gas_limit: 0,
            proposer: Address::ZERO,
        }
    }

    /// Validates and integrates a block, handling extension, side
    /// chains, and reorgs with full UTXO re-validation. On a reorg the
    /// abandoned branch's transactions return to the mempool.
    ///
    /// # Errors
    ///
    /// Structurally invalid blocks and branches hiding semantic
    /// violations (double spends, bad signatures) are rejected; in the
    /// latter case the offending branch is expunged and the previous
    /// active chain restored.
    pub fn receive_block(
        &mut self,
        block: impl Into<SharedBlock<UtxoTx>>,
    ) -> Result<InsertOutcome, BitcoinError> {
        let outcome = self.chain.insert(block);
        match &outcome {
            InsertOutcome::Rejected(err) => return Err(BitcoinError::Structure(*err)),
            InsertOutcome::Extended { applied, .. } => {
                self.apply_branch(applied.clone(), Vec::new())?;
            }
            InsertOutcome::Reorged {
                reverted, applied, ..
            } => {
                self.apply_branch(applied.clone(), reverted.clone())?;
            }
            InsertOutcome::SideChain | InsertOutcome::AwaitingParent | InsertOutcome::Duplicate => {
            }
        }
        Ok(outcome)
    }

    /// Reverts `reverted` (newest first) and applies `applied` (oldest
    /// first) to the UTXO ledger; restores the old branch if the new
    /// one is invalid.
    fn apply_branch(
        &mut self,
        applied: Vec<Digest>,
        reverted: Vec<Digest>,
    ) -> Result<(), BitcoinError> {
        // Roll back the abandoned branch.
        for id in &reverted {
            let undo = self
                .undo
                .remove(id)
                .expect("active blocks always have undo data");
            self.ledger.revert_block(undo);
        }

        // Apply the new branch, collecting undo as we go.
        let mut done: Vec<Digest> = Vec::new();
        let mut failure: Option<(Digest, UtxoError)> = None;
        for id in &applied {
            let block = self.chain.block(id).expect("applied blocks are stored");
            match self.ledger.apply_block(block, self.params.subsidy) {
                Ok(undo) => {
                    self.undo.insert(*id, undo);
                    done.push(*id);
                }
                Err(err) => {
                    failure = Some((*id, err));
                    break;
                }
            }
        }

        if let Some((bad_block, error)) = failure {
            // Unwind the partial application…
            for id in done.iter().rev() {
                let undo = self.undo.remove(id).expect("just inserted");
                self.ledger.revert_block(undo);
            }
            // …drop the poisoned branch from the store…
            self.chain.invalidate(&bad_block);
            // …and restore the previously-active branch (it validated
            // before, so this cannot fail).
            for id in reverted.iter().rev() {
                let block = self
                    .chain
                    .block(id)
                    .expect("reverted blocks remain stored")
                    .clone();
                let undo = self
                    .ledger
                    .apply_block(&block, self.params.subsidy)
                    .expect("previously active branch re-applies cleanly");
                self.undo.insert(*id, undo);
            }
            return Err(BitcoinError::Semantics {
                block: bad_block,
                error,
            });
        }

        // Mempool bookkeeping: orphaned txs return, confirmed txs leave.
        for id in &reverted {
            if let Some(block) = self.chain.shared_block(id) {
                self.mempool.reinstate(block);
            }
        }
        for id in &applied {
            if let Some(block) = self.chain.shared_block(id) {
                self.mempool
                    .remove_confirmed(block.tx_ids().iter().copied());
            }
        }
        Ok(())
    }

    /// Whether a transaction is confirmed at the chain's configured
    /// depth: included in an active block with ≥ `confirmation_depth`
    /// confirmations (§IV-A).
    pub fn is_confirmed(&self, tx_id: &Digest) -> bool {
        self.chain
            .tx_confirmations(tx_id)
            .is_some_and(|c| c >= self.params.confirmation_depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utxo::Wallet;

    fn setup(funds: u64) -> (BitcoinChain, Wallet, Address) {
        let mut wallet = Wallet::new(1);
        let funded = wallet.new_address();
        let chain = BitcoinChain::new(BitcoinParams::default(), &[(funded, funds)]);
        (chain, wallet, funded)
    }

    #[test]
    fn genesis_allocates_funds() {
        let (chain, wallet, funded) = setup(1000);
        assert_eq!(chain.ledger().balance(&funded), 1000);
        assert_eq!(wallet.balance(chain.ledger()), 1000);
        assert_eq!(chain.chain().tip_height(), 0);
    }

    #[test]
    fn mine_empty_block_pays_subsidy() {
        let (mut chain, _, _) = setup(1000);
        let miner = Address::from_label("miner");
        let block = chain.mine_block(miner, 600_000_000);
        assert_eq!(block.header.height, 1);
        assert_eq!(chain.chain().tip(), block.id());
        assert_eq!(chain.ledger().balance(&miner), 50);
    }

    #[test]
    fn submitted_tx_gets_mined_and_confirmed_at_depth() {
        let (mut chain, mut wallet, _) = setup(1000);
        let to = Address::from_label("shop");
        let tx = wallet
            .build_transfer(chain.ledger(), to, 100, 5)
            .expect("funded");
        let tx_id = tx.id();
        assert_eq!(chain.submit_tx(tx.clone()), Some(tx_id));
        assert_eq!(chain.submit_tx(tx), None, "already pooled");
        assert_eq!(chain.mempool().len(), 1);

        let miner = Address::from_label("miner");
        chain.mine_block(miner, 600_000_000);
        assert_eq!(chain.ledger().balance(&to), 100);
        assert_eq!(chain.ledger().balance(&miner), 55); // subsidy + fee
        assert!(chain.mempool().is_empty());
        assert!(!chain.is_confirmed(&tx_id), "1 conf < 6");
        for i in 2..=6 {
            chain.mine_block(miner, 600_000_000 * i);
        }
        assert!(chain.is_confirmed(&tx_id), "6 confs");
    }

    #[test]
    fn reorg_reverts_and_reinstates_transactions() {
        let (mut chain, mut wallet, _) = setup(1000);
        let genesis_id = chain.chain().genesis();
        let to = Address::from_label("shop");
        let tx = wallet.build_transfer(chain.ledger(), to, 100, 0).unwrap();
        let tx_id = tx.id();
        chain.submit_tx(tx);
        chain.mine_block(Address::from_label("miner-a"), 1_000_000);
        assert_eq!(chain.ledger().balance(&to), 100);

        // A competing branch of two empty blocks from genesis wins.
        let rival = Address::from_label("rival");
        let b1 = {
            let header = BlockHeader {
                parent: genesis_id,
                height: 1,
                timestamp_micros: 2_000_000,
                ..chain.header_template(0)
            };
            Block::new(header, vec![UtxoTx::coinbase(1, 50, rival)])
        };
        let b2 = {
            let header = BlockHeader {
                parent: b1.id(),
                height: 2,
                timestamp_micros: 3_000_000,
                ..chain.header_template(0)
            };
            Block::new(header, vec![UtxoTx::coinbase(2, 50, rival)])
        };
        chain.receive_block(b1).unwrap();
        let outcome = chain.receive_block(b2).unwrap();
        assert!(matches!(outcome, InsertOutcome::Reorged { .. }));

        // The payment was orphaned: balance gone, tx back in mempool.
        assert_eq!(chain.ledger().balance(&to), 0);
        assert!(chain.mempool().contains(&tx_id));
        assert_eq!(chain.ledger().balance(&rival), 100);

        // Mining on the new branch re-includes it.
        chain.mine_block(Address::from_label("miner-a"), 4_000_000);
        assert_eq!(chain.ledger().balance(&to), 100);
        assert!(!chain.mempool().contains(&tx_id));
    }

    #[test]
    fn double_spend_branch_is_rejected_and_chain_restored() {
        let (mut chain, mut wallet, _) = setup(1000);
        let genesis_id = chain.chain().genesis();
        // Honest chain: one block with a real payment.
        let to = Address::from_label("shop");
        let tx = wallet.build_transfer(chain.ledger(), to, 100, 0).unwrap();
        chain.submit_tx(tx.clone());
        let honest = chain.mine_block(Address::from_label("miner"), 1_000_000);

        // Attacker branch: two blocks, the second containing the same
        // tx twice (a blatant double spend).
        let attacker = Address::from_label("attacker");
        let a1 = {
            let header = BlockHeader {
                parent: genesis_id,
                height: 1,
                timestamp_micros: 2_000_000,
                ..chain.header_template(0)
            };
            Block::new(header, vec![UtxoTx::coinbase(1, 50, attacker)])
        };
        let a2 = {
            let header = BlockHeader {
                parent: a1.id(),
                height: 2,
                timestamp_micros: 3_000_000,
                ..chain.header_template(0)
            };
            Block::new(
                header,
                vec![UtxoTx::coinbase(2, 50, attacker), tx.clone(), tx.clone()],
            )
        };
        chain.receive_block(a1).unwrap();
        let err = chain.receive_block(a2).unwrap_err();
        assert!(matches!(err, BitcoinError::Semantics { .. }));

        // The honest chain is restored, payment intact.
        assert_eq!(chain.chain().tip(), honest.id());
        assert_eq!(chain.ledger().balance(&to), 100);
        assert_eq!(chain.ledger().balance(&attacker), 0);
    }

    #[test]
    fn block_capacity_limits_inclusion() {
        // Three separately funded outputs so three independent txs can
        // be built before any of them is mined.
        let mut wallet = Wallet::new(1);
        let allocations: Vec<(Address, u64)> =
            (0..3).map(|_| (wallet.new_address(), 1_000)).collect();
        let mut chain = BitcoinChain::new(BitcoinParams::default(), &allocations);
        // Shrink capacity so only ~1 tx fits (a WOTS-signed tx is ~2.3 KB).
        chain.params.max_block_bytes = 3_000;
        let to = Address::from_label("x");
        for _ in 0..3 {
            let tx = wallet.build_transfer(chain.ledger(), to, 10, 1).unwrap();
            chain.submit_tx(tx);
        }
        assert_eq!(chain.mempool().len(), 3);
        chain.mine_block(Address::from_label("m"), 1_000_000);
        // Not everything fit.
        assert!(!chain.mempool().is_empty(), "backlog remains");
        assert!(chain.ledger().balance(&to) < 30);
    }

    #[test]
    fn mined_block_ids_are_pinned() {
        // Two wallets on one seed hold the same key, so `twin` can sign
        // a second spend of `wallet`'s funded output.
        let mut wallet = Wallet::new(21);
        let mut twin = Wallet::new(21);
        let mut forger = Wallet::new(22);
        let funded = wallet.new_address();
        assert_eq!(twin.new_address(), funded);
        let forged = forger.new_address();
        let mut chain = BitcoinChain::new(
            BitcoinParams::default(),
            &[(funded, 1_000), (forged, 1_000)],
        );
        let ledger = chain.ledger().clone();

        let pay = wallet
            .build_transfer(&ledger, Address::from_label("shop"), 100, 40)
            .unwrap();
        let double_spend = twin
            .build_transfer(&ledger, Address::from_label("thief"), 100, 20)
            .unwrap();
        let mut bad_signature = forger
            .build_transfer(&ledger, Address::from_label("x"), 100, 30)
            .unwrap();
        bad_signature.outputs[0].recipient = Address::from_label("y");
        // The child spends `pay`'s change, which only a ledger holding
        // `pay` shows to the wallet.
        let mut with_pay = ledger.clone();
        let header = BlockHeader {
            height: 1,
            ..chain.header_template(0)
        };
        with_pay
            .apply_block(
                &Block::new(
                    header,
                    vec![UtxoTx::coinbase(1, 0, Address::ZERO), pay.clone()],
                ),
                0,
            )
            .unwrap();
        let child = wallet
            .build_transfer(&with_pay, Address::from_label("cafe"), 10, 1)
            .unwrap();
        assert_eq!(child.inputs[0].outpoint.txid, pay.id());
        for tx in [&pay, &double_spend, &bad_signature, &child] {
            assert_eq!(chain.submit_tx(tx.clone()), Some(tx.id()));
        }

        let miner = Address::from_label("miner");
        let first = chain.mine_block(miner, 600_000_000);
        assert_eq!(
            first.txs[1..].iter().map(UtxoTx::id).collect::<Vec<_>>(),
            [pay.id(), child.id()]
        );
        assert_eq!(chain.ledger().balance(&miner), 50 + 40 + 1);
        // The double spend and the forged transfer were evicted.
        assert!(chain.mempool().is_empty());
        let second = chain.mine_block(miner, 1_200_000_000);
        assert_eq!(
            [first.id().to_hex(), second.id().to_hex()],
            [
                "f4b1bb84a8c48594436b5c46464c83cd9ad6dedc5ca96650001f60df943f86d7",
                "1d054895245b4c95111696905e9a68e8adf29c410cd162ad45aec91d2d7371f1"
            ]
        );
    }

    #[test]
    fn undo_bytes_accumulate_with_chain() {
        let (mut chain, _, _) = setup(10);
        let before = chain.undo_bytes();
        for i in 1..=5 {
            chain.mine_block(Address::from_label("m"), i * 1_000_000);
        }
        assert!(chain.undo_bytes() > before);
    }
}
