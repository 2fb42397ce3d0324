//! The Ethereum-like reference chain: account state trie + gas-limited
//! blocks + receipts + pruning/fast-sync (paper §II-A, §V-A, §VI-A).
//!
//! [`EthereumChain`] produces blocks whose capacity is a **dynamic gas
//! limit** ("a dynamic block size not measured in bytes but rather in
//! gas … this value is dynamic and will adapt to network conditions"):
//! each block may nudge the limit up or down by 1/1024, moving toward
//! target utilisation, exactly the mainnet miner-voting rule.
//!
//! Every block header commits to the post-execution state root and the
//! receipts root. Because [`StateDb`] is a persistent (path-copying)
//! trie, reorgs simply re-point at another root — and the two §V-A
//! size-reduction strategies are direct operations:
//!
//! * [`EthereumChain::prune_state_deltas`] — drop all trie nodes not
//!   reachable from the newest `keep` roots (discarding historical
//!   deltas);
//! * [`EthereumChain::fast_sync`] — build a *new* node from the pivot
//!   block (head − `pivot_offset`): recent headers/blocks + receipts +
//!   the pivot's verified state closure, never replaying history.

use std::collections::BTreeMap;

use dlt_crypto::keys::Address;
use dlt_crypto::Digest;

use crate::account::{receipts_root, AccountError, AccountTx, Receipt, StateDb};
use crate::block::{Block, BlockHeader, LedgerTx, SharedBlock};
use crate::chain::{ChainStore, InsertOutcome};
use crate::mempool::Mempool;

/// Chain parameters (defaults follow the paper's Ethereum description).
#[derive(Debug, Clone)]
pub struct EthereumParams {
    /// Block reward credited to the producer.
    pub block_reward: u64,
    /// Starting gas limit.
    pub initial_gas_limit: u64,
    /// Hard floor for the gas limit.
    pub min_gas_limit: u64,
    /// The limit moves by `limit / adjustment_quotient` per block
    /// (mainnet: 1024).
    pub adjustment_quotient: u64,
    /// Blocks to wait before confirmation ("five to eleven for
    /// Ethereum" — default to the midpoint).
    pub confirmation_depth: u64,
    /// Mempool capacity.
    pub mempool_capacity: usize,
}

impl Default for EthereumParams {
    fn default() -> Self {
        EthereumParams {
            block_reward: 2,
            initial_gas_limit: 8_000_000,
            min_gas_limit: 5_000,
            adjustment_quotient: 1024,
            confirmation_depth: 8,
            mempool_capacity: 300_000,
        }
    }
}

/// Errors from full (structural + state) validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EthereumError {
    /// Chain-structure rejection.
    Structure(crate::chain::BlockError),
    /// State-execution rejection (names the offending block).
    Semantics {
        /// The invalid block.
        block: Digest,
        /// The underlying account-model error.
        error: AccountError,
    },
}

impl std::fmt::Display for EthereumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EthereumError::Structure(e) => write!(f, "structural rejection: {e}"),
            EthereumError::Semantics { block, error } => {
                write!(f, "block {} invalid: {error}", block.short())
            }
        }
    }
}

impl std::error::Error for EthereumError {}

/// The assembled Ethereum-like system.
pub struct EthereumChain {
    params: EthereumParams,
    chain: ChainStore<AccountTx>,
    state: StateDb,
    /// Post-execution state root per connected, validated block.
    roots: BTreeMap<Digest, Digest>,
    /// Receipts per connected, validated block.
    receipts: BTreeMap<Digest, Vec<Receipt>>,
    mempool: Mempool<AccountTx>,
}

impl EthereumChain {
    /// Creates a chain whose genesis state allocates the given
    /// `(address, amount)` pairs.
    pub fn new(params: EthereumParams, allocations: &[(Address, u64)]) -> Self {
        let mut state = StateDb::new();
        let mut root = StateDb::empty_root();
        for (address, amount) in allocations {
            root = state.credit(root, address, *amount);
        }
        let genesis_header = BlockHeader {
            parent: Digest::ZERO,
            height: 0,
            merkle_root: Digest::ZERO,
            state_root: root,
            receipts_root: Digest::ZERO,
            timestamp_micros: 0,
            difficulty: 1,
            nonce: 0,
            gas_used: 0,
            gas_limit: params.initial_gas_limit,
            proposer: Address::ZERO,
        };
        let genesis = Block::new(genesis_header, vec![]);
        let genesis_id = genesis.id();
        let mut roots = BTreeMap::new();
        roots.insert(genesis_id, root);
        EthereumChain {
            mempool: Mempool::new(params.mempool_capacity),
            params,
            chain: ChainStore::new(genesis, false),
            state,
            roots,
            receipts: BTreeMap::new(),
        }
    }

    /// The chain parameters.
    pub fn params(&self) -> &EthereumParams {
        &self.params
    }

    /// The block store.
    pub fn chain(&self) -> &ChainStore<AccountTx> {
        &self.chain
    }

    /// The state database (trie sizes, pruning).
    pub fn state(&self) -> &StateDb {
        &self.state
    }

    /// The mempool.
    pub fn mempool(&self) -> &Mempool<AccountTx> {
        &self.mempool
    }

    /// The state root of the active tip.
    pub fn tip_root(&self) -> Digest {
        self.roots[&self.chain.tip()]
    }

    /// Reads an account at the active tip.
    pub fn account(&self, address: &Address) -> crate::account::AccountState {
        self.state.account(self.tip_root(), address)
    }

    /// An account's balance at the active tip.
    pub fn balance(&self, address: &Address) -> u64 {
        self.account(address).balance
    }

    /// Receipts of a connected block, if it validated.
    pub fn block_receipts(&self, block: &Digest) -> Option<&[Receipt]> {
        self.receipts.get(block).map(Vec::as_slice)
    }

    /// Offers a transaction to the mempool. Returns the id it was
    /// pooled under (hashed here, once), or `None` if the pool refused
    /// it.
    pub fn submit_tx(&mut self, tx: AccountTx) -> Option<Digest> {
        let id = tx.id();
        self.mempool.insert(id, tx).then_some(id)
    }

    /// The gas limit a child of `parent` must use: move toward the
    /// parent's utilisation by at most `limit / quotient` (the miner
    /// gas-limit vote; we target full blocks when demand exists and
    /// decay toward the floor otherwise, matching the mainnet
    /// dynamics the paper references).
    pub fn next_gas_limit(&self, parent: &BlockHeader) -> u64 {
        let limit = parent.gas_limit.max(self.params.min_gas_limit);
        let step = (limit / self.params.adjustment_quotient).max(1);
        // Miners vote up when blocks are ≥ ⅔ full, down otherwise.
        let next = if parent.gas_used * 3 >= limit * 2 {
            limit + step
        } else {
            limit.saturating_sub(step)
        };
        next.max(self.params.min_gas_limit)
    }

    /// Assembles, executes and stores a block on the current tip.
    /// Returns the block: the allocation the store holds, its
    /// transactions hashed once.
    pub fn produce_block(
        &mut self,
        producer: Address,
        timestamp_micros: u64,
    ) -> SharedBlock<AccountTx> {
        let parent_id = self.chain.tip();
        let parent = self.chain.header(&parent_id).expect("tip exists").clone();
        let height = parent.height + 1;
        let gas_limit = self.next_gas_limit(&parent);

        // Real Ethereum block building: per-sender queues in nonce
        // order, repeatedly taking the best-paying executable head.
        // Consider the whole pool — a capacity-bounded candidate subset
        // would cut nonce chains arbitrarily and stall senders.
        let candidates = self.mempool.select_for_block(u64::MAX);
        let mut queues: BTreeMap<Address, Vec<AccountTx>> = BTreeMap::new();
        for tx in candidates {
            queues.entry(tx.sender()).or_default().push(tx);
        }
        for queue in queues.values_mut() {
            // Highest nonce first so `pop()` yields the lowest.
            queue.sort_by_key(|tx| std::cmp::Reverse(tx.nonce));
        }

        let mut root = self.roots[&parent_id];
        let mut included = Vec::new();
        let mut receipts = Vec::new();
        let mut gas_used = 0u64;
        // The best-paying head among all sender queues, each round.
        while let Some(best_sender) = queues
            .iter()
            .filter_map(|(sender, queue)| queue.last().map(|tx| (*sender, tx)))
            .max_by_key(|(_, tx)| (tx.gas_price, tx.id()))
            .map(|(sender, _)| sender)
        {
            let queue = queues.get_mut(&best_sender).expect("sender has a queue");
            let tx = queue.pop().expect("head exists");
            if gas_used + tx.gas_used() > gas_limit {
                // No room for this sender's next nonce; its successors
                // can't jump the queue either.
                queues.remove(&best_sender);
                continue;
            }
            match self.state.apply_tx(root, &tx, &producer) {
                Ok((new_root, receipt)) => {
                    root = new_root;
                    gas_used += tx.gas_used();
                    included.push(tx);
                    receipts.push(receipt);
                }
                Err(AccountError::BadNonce { expected, got }) if got > expected => {
                    // Nonce gap: a predecessor wasn't among this
                    // block's candidates. The transaction stays in the
                    // mempool for a later block; this sender just can't
                    // contribute more to *this* one.
                    queues.remove(&best_sender);
                }
                Err(_) => {
                    // Genuinely unexecutable (stale nonce, bad funds,
                    // bad signature): evict it and skip everything
                    // stacked behind it for this block.
                    self.mempool.remove_confirmed([tx.id()]);
                    queues.remove(&best_sender);
                }
            }
            if queues
                .get(&best_sender)
                .is_some_and(|queue| queue.is_empty())
            {
                queues.remove(&best_sender);
            }
        }

        let state_root =
            self.state
                .close_block(root, &mut receipts, &producer, self.params.block_reward);
        let header = BlockHeader {
            parent: parent_id,
            height,
            merkle_root: Digest::ZERO,
            state_root,
            receipts_root: receipts_root(&receipts),
            timestamp_micros,
            difficulty: 1,
            nonce: 0,
            gas_used,
            gas_limit,
            proposer: producer,
        };
        let block = SharedBlock::build(header, included);
        self.receive_block(block.clone())
            .expect("locally assembled blocks validate");
        block
    }

    /// Validates and integrates a block (extension, side chain or
    /// reorg). Applied branches re-execute against the state trie and
    /// must match their headers' state/receipts roots.
    ///
    /// # Errors
    ///
    /// Structural rejections and branches that fail execution or root
    /// commitments; the offending branch is expunged and the previous
    /// chain restored.
    pub fn receive_block(
        &mut self,
        block: impl Into<SharedBlock<AccountTx>>,
    ) -> Result<InsertOutcome, EthereumError> {
        let outcome = self.chain.insert(block);
        match &outcome {
            InsertOutcome::Rejected(err) => return Err(EthereumError::Structure(*err)),
            InsertOutcome::Extended { applied, .. } => {
                self.validate_branch(applied.clone(), &[])?;
            }
            InsertOutcome::Reorged {
                reverted, applied, ..
            } => {
                self.validate_branch(applied.clone(), reverted)?;
            }
            InsertOutcome::SideChain | InsertOutcome::AwaitingParent | InsertOutcome::Duplicate => {
            }
        }
        Ok(outcome)
    }

    /// Executes `applied` blocks oldest-first; on failure the branch is
    /// invalidated (the persistent trie needs no rollback — old roots
    /// never died).
    fn validate_branch(
        &mut self,
        applied: Vec<Digest>,
        reverted: &[Digest],
    ) -> Result<(), EthereumError> {
        for id in &applied {
            if self.roots.contains_key(id) {
                continue; // already validated on a previous adoption
            }
            let block = self.chain.block(id).expect("applied blocks are stored");
            let parent_root = self.roots[&block.header.parent];
            let producer = block.header.proposer;
            match self
                .state
                .apply_block(parent_root, block, &producer, self.params.block_reward)
            {
                Ok((root, receipts)) => {
                    self.roots.insert(*id, root);
                    self.receipts.insert(*id, receipts);
                }
                Err(error) => {
                    self.chain.invalidate(id);
                    return Err(EthereumError::Semantics { block: *id, error });
                }
            }
        }
        // Mempool bookkeeping.
        for id in reverted {
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

    /// Drops state trie nodes unreachable from the newest `keep` active
    /// roots — the "deltas can be discarded without harming the chain
    /// integrity" pruning of §V-A. Returns the number of nodes
    /// collected.
    pub fn prune_state_deltas(&mut self, keep: usize) -> usize {
        let active = self.chain.active_chain();
        let start = active.len().saturating_sub(keep.max(1));
        let live_roots: Vec<Digest> = active[start..]
            .iter()
            .filter_map(|id| self.roots.get(id).copied())
            .collect();
        // Forget the root index for pruned heights too.
        let keep_set: std::collections::BTreeSet<Digest> =
            active[start..].iter().copied().collect();
        self.roots.retain(|block, _| keep_set.contains(block));
        self.receipts.retain(|block, _| keep_set.contains(block));
        self.state.trie_mut().collect_garbage(&live_roots)
    }

    /// Fast sync (§V-A): builds a fresh node from this one's data
    /// without replaying history. The new node receives
    ///
    /// 1. all block headers+bodies and receipts from the pivot
    ///    (`head − pivot_offset`) onward,
    /// 2. the pivot's state-trie closure, verified node-by-node.
    ///
    /// Returns the synced chain and the number of bytes transferred
    /// (the "download size" the experiment reports).
    ///
    /// Full historical blocks *before* the pivot are deliberately not
    /// transferred — that is the entire point of fast sync.
    pub fn fast_sync(&self, pivot_offset: u64) -> Option<(FastSyncedNode, usize)> {
        let active = self.chain.active_chain();
        let pivot_height = self.chain.tip_height().saturating_sub(pivot_offset);
        let pivot_id = active[pivot_height as usize];
        let pivot_root = *self.roots.get(&pivot_id)?;

        // State download, verified against hashes.
        let trie = self.state.trie().extract_reachable(pivot_root)?;
        let mut bytes = trie.total_bytes();

        // Blocks + receipts from pivot onward.
        let mut blocks = Vec::new();
        for id in &active[pivot_height as usize..] {
            let block = self.chain.block(id)?.clone();
            bytes += block.size_bytes();
            if let Some(receipts) = self.receipts.get(id) {
                bytes += receipts
                    .iter()
                    .map(dlt_crypto::codec::Encode::encoded_len)
                    .sum::<usize>();
            }
            blocks.push(block);
        }
        Some((
            FastSyncedNode {
                pivot_height,
                pivot_root,
                blocks,
                trie,
            },
            bytes,
        ))
    }

    /// Expunges a block and its descendants, falling back to the best
    /// surviving branch (used by the PoS finality layer to undo a
    /// reorg that violated a finalized checkpoint).
    pub fn invalidate(&mut self, id: &Digest) -> Vec<Digest> {
        let removed = self.chain.invalidate(id);
        for gone in &removed {
            self.roots.remove(gone);
            self.receipts.remove(gone);
        }
        removed
    }

    /// Whether a transaction is confirmed at the configured depth.
    pub fn is_confirmed(&self, tx_id: &Digest) -> bool {
        self.chain
            .tx_confirmations(tx_id)
            .is_some_and(|c| c >= self.params.confirmation_depth)
    }
}

/// The result of a fast sync: everything a freshly syncing node holds.
pub struct FastSyncedNode {
    /// Height of the pivot block.
    pub pivot_height: u64,
    /// The state root at the pivot.
    pub pivot_root: Digest,
    /// Blocks from the pivot to the head.
    pub blocks: Vec<Block<AccountTx>>,
    /// The pivot state's verified trie closure.
    pub trie: dlt_crypto::trie::TrieDb,
}

impl FastSyncedNode {
    /// Reads an account from the synced state.
    pub fn account(&self, address: &Address) -> crate::account::AccountState {
        crate::account::AccountState::read(&self.trie, self.pivot_root, address)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::AccountHolder;

    fn setup(balance: u64) -> (EthereumChain, AccountHolder) {
        let alice = AccountHolder::from_seed([1u8; 32], 6);
        let chain = EthereumChain::new(EthereumParams::default(), &[(alice.address(), balance)]);
        (chain, alice)
    }

    #[test]
    fn genesis_allocates_state() {
        let (chain, alice) = setup(1_000_000);
        assert_eq!(chain.balance(&alice.address()), 1_000_000);
        assert_eq!(chain.chain().tip_height(), 0);
    }

    #[test]
    fn produced_block_executes_transactions() {
        let (mut chain, mut alice) = setup(100_000_000);
        let bob = Address::from_label("bob");
        let first = alice.transfer(bob, 1_000, 1);
        assert_eq!(chain.submit_tx(first.clone()), Some(first.id()));
        assert_eq!(chain.submit_tx(first), None, "already pooled");
        chain.submit_tx(alice.transfer(bob, 2_000, 1));
        let producer = Address::from_label("validator");
        let block = chain.produce_block(producer, 15_000_000);
        assert_eq!(block.txs.len(), 2);
        assert_eq!(chain.balance(&bob), 3_000);
        // Producer: reward + both fees.
        assert_eq!(
            chain.balance(&producer),
            chain.params().block_reward + block.total_fee()
        );
        assert!(chain.mempool().is_empty());
        // Receipts committed and retrievable.
        let receipts = chain.block_receipts(&block.id()).unwrap();
        assert_eq!(receipts.len(), 2);
        assert!(receipts.iter().all(|r| r.success));
    }

    #[test]
    fn out_of_order_nonces_land_in_one_block() {
        let (mut chain, mut alice) = setup(100_000_000);
        let bob = Address::from_label("bob");
        let t0 = alice.transfer(bob, 1, 1);
        let t1 = alice.transfer(bob, 2, 5); // higher fee rate: selected first
        chain.submit_tx(t1);
        chain.submit_tx(t0);
        let block = chain.produce_block(Address::from_label("v"), 1);
        assert_eq!(block.txs.len(), 2, "both nonces included");
        assert_eq!(chain.balance(&bob), 3);
    }

    #[test]
    fn state_roots_differ_per_block_and_old_roots_survive() {
        let (mut chain, mut alice) = setup(100_000_000);
        let bob = Address::from_label("bob");
        let r0 = chain.tip_root();
        chain.submit_tx(alice.transfer(bob, 100, 1));
        chain.produce_block(Address::from_label("v"), 1);
        let r1 = chain.tip_root();
        assert_ne!(r0, r1);
        // Historical state still readable — the "state delta" idea.
        assert_eq!(chain.state().account(r0, &bob).balance, 0);
        assert_eq!(chain.state().account(r1, &bob).balance, 100);
    }

    #[test]
    fn gas_limit_adapts_to_demand() {
        let (mut chain, mut alice) = setup(u64::MAX / 4);
        // Empty blocks: limit decays.
        let l0 = chain
            .chain()
            .header(&chain.chain().tip())
            .unwrap()
            .gas_limit;
        chain.produce_block(Address::from_label("v"), 1);
        let l1 = chain
            .chain()
            .header(&chain.chain().tip())
            .unwrap()
            .gas_limit;
        assert!(l1 < l0, "empty block lowers the limit ({l1} < {l0})");

        // Saturated blocks: limit grows.
        // Fill well past 2/3 of the limit with payload-heavy txs.
        for _ in 0..55 {
            chain.submit_tx(alice.transfer_with_payload(Address::from_label("sink"), 1, 1, 2_000));
        }
        chain.produce_block(Address::from_label("v"), 2);
        let l2 = chain
            .chain()
            .header(&chain.chain().tip())
            .unwrap()
            .gas_limit;
        chain.produce_block(Address::from_label("v"), 3);
        let l3 = chain
            .chain()
            .header(&chain.chain().tip())
            .unwrap()
            .gas_limit;
        assert!(l3 > l2, "full blocks raise the limit ({l3} > {l2})");
    }

    #[test]
    fn reorg_switches_state_root() {
        let (mut chain, mut alice) = setup(100_000_000);
        let genesis_id = chain.chain().genesis();
        let genesis_root = chain.tip_root();
        let bob = Address::from_label("bob");
        chain.submit_tx(alice.transfer(bob, 500, 1));
        chain.produce_block(Address::from_label("v"), 1);
        assert_eq!(chain.balance(&bob), 500);

        // Rival empty branch of length 2 from genesis.
        let rival = Address::from_label("rival");
        let mk = |parent: Digest, height: u64, root: Digest, ts: u64| {
            let header = BlockHeader {
                parent,
                height,
                merkle_root: Digest::ZERO,
                state_root: root,
                receipts_root: Digest::ZERO,
                timestamp_micros: ts,
                difficulty: 1,
                nonce: 0,
                gas_used: 0,
                gas_limit: 8_000_000,
                proposer: rival,
            };
            Block::new(header, vec![])
        };
        // Empty blocks still credit the reward, so compute roots via a
        // scratch state.
        let mut scratch = chain.state().clone();
        let r1 = scratch.credit(genesis_root, &rival, chain.params().block_reward);
        let b1 = mk(genesis_id, 1, r1, 10);
        let r2 = scratch.credit(r1, &rival, chain.params().block_reward);
        let b2 = mk(b1.id(), 2, r2, 20);
        chain.receive_block(b1).unwrap();
        let outcome = chain.receive_block(b2).unwrap();
        assert!(matches!(outcome, InsertOutcome::Reorged { .. }));
        // Bob's payment is gone on the new branch; tx back in mempool.
        assert_eq!(chain.balance(&bob), 0);
        assert_eq!(chain.mempool().len(), 1);
        assert_eq!(chain.balance(&rival), 2 * chain.params().block_reward);
    }

    #[test]
    fn wrong_state_root_branch_rejected() {
        let (mut chain, _) = setup(1_000);
        let genesis_id = chain.chain().genesis();
        let header = BlockHeader {
            parent: genesis_id,
            height: 1,
            merkle_root: Digest::ZERO,
            state_root: dlt_crypto::sha256::sha256(b"lie"),
            receipts_root: Digest::ZERO,
            timestamp_micros: 1,
            difficulty: 1,
            nonce: 0,
            gas_used: 0,
            gas_limit: 8_000_000,
            proposer: Address::from_label("liar"),
        };
        let bad = Block::new(header, vec![]);
        let bad_id = bad.id();
        let err = chain.receive_block(bad).unwrap_err();
        assert_eq!(
            err,
            EthereumError::Semantics {
                block: bad_id,
                error: AccountError::StateRootMismatch
            }
        );
        // Chain fell back to genesis.
        assert_eq!(chain.chain().tip(), genesis_id);
        assert!(!chain.chain().contains(&bad_id));
    }

    #[test]
    fn prune_state_deltas_shrinks_trie_but_keeps_tip() {
        let (mut chain, mut alice) = setup(u64::MAX / 4);
        let bob = Address::from_label("bob");
        for i in 0..30 {
            chain.submit_tx(alice.transfer(bob, 10, 1));
            chain.produce_block(Address::from_label("v"), i);
        }
        let nodes_before = chain.state().trie().node_count();
        let collected = chain.prune_state_deltas(4);
        assert!(collected > 0, "history produced dead nodes");
        assert!(chain.state().trie().node_count() < nodes_before);
        // Tip state is fully intact.
        assert_eq!(chain.balance(&bob), 300);
    }

    #[test]
    fn fast_sync_transfers_recent_state_only() {
        let (mut chain, mut alice) = setup(u64::MAX / 4);
        let bob = Address::from_label("bob");
        for i in 0..40 {
            chain.submit_tx(alice.transfer(bob, 10, 1));
            chain.produce_block(Address::from_label("v"), i);
        }
        let full_bytes = chain.chain().total_bytes() + chain.state().trie().total_bytes();
        let (synced, sync_bytes) = chain.fast_sync(8).expect("sync succeeds");
        assert_eq!(synced.pivot_height, 32);
        assert_eq!(synced.blocks.len(), 9); // pivot..=head
        assert_eq!(synced.account(&bob).balance, 320); // state at pivot
        assert!(
            sync_bytes < full_bytes,
            "fast sync ({sync_bytes} B) cheaper than full history ({full_bytes} B)"
        );
    }

    #[test]
    fn produced_block_ids_are_pinned() {
        let mut alice = AccountHolder::from_seed([21u8; 32], 3);
        let mut bob = AccountHolder::from_seed([22u8; 32], 3);
        let mut carol = AccountHolder::from_seed([23u8; 32], 3);
        let allocations: Vec<(Address, u64)> = [&alice, &bob, &carol]
            .iter()
            .map(|holder| (holder.address(), 1_000_000))
            .collect();
        let mut chain = EthereumChain::new(EthereumParams::default(), &allocations);
        let shop = Address::from_label("shop");
        let stale = alice.transfer(shop, 10, 2);
        chain.submit_tx(stale.clone());
        chain.submit_tx(carol.transfer(shop, 20, 1));
        let producer = Address::from_label("validator");
        let first = chain.produce_block(producer, 15_000_000);
        assert_eq!(first.txs.len(), 2);

        // Alice's nonce 0 again (stale), Bob's nonce 0, and Carol's
        // nonce 2 with nonce 1 never sent (a gap).
        chain.submit_tx(stale.clone());
        let paid = bob.transfer(shop, 30, 3);
        chain.submit_tx(paid.clone());
        carol.transfer(shop, 40, 1);
        let gapped = carol.transfer(shop, 50, 5);
        chain.submit_tx(gapped.clone());
        let second = chain.produce_block(producer, 30_000_000);
        assert_eq!(second.txs, [paid]);
        // The stale transfer was evicted; the gapped one waits.
        assert!(!chain.mempool().contains(&stale.id()));
        assert!(chain.mempool().contains(&gapped.id()));
        assert_eq!(chain.mempool().len(), 1);
        assert_eq!(
            [first.id().to_hex(), second.id().to_hex()],
            [
                "db67cfe1462c62b1a61ae11c13a2a88609cfbcc0a1726b0a94d6969636353658",
                "b539b19f53b04be8ce4c9de5123678c2bf273bee4ef9c0eff3c6323c506673d0"
            ]
        );
    }

    #[test]
    fn confirmation_depth() {
        let (mut chain, mut alice) = setup(100_000_000);
        let tx = alice.transfer(Address::from_label("b"), 1, 1);
        let tx_id = tx.id();
        chain.submit_tx(tx);
        chain.produce_block(Address::from_label("v"), 0);
        assert!(!chain.is_confirmed(&tx_id));
        for i in 1..8 {
            chain.produce_block(Address::from_label("v"), i);
        }
        assert!(chain.is_confirmed(&tx_id));
    }
}
