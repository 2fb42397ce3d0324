//! The block store: fork tracking, most-work tip selection and reorgs
//! (paper §IV-A, Fig. 4).
//!
//! A [`ChainStore`] holds *every* valid block it has seen — the active
//! chain plus all side branches — exactly because a blockchain must
//! tolerate temporary soft forks: "two blocks claim the same
//! predecessor … the longer chain is adopted, while the shorter one is
//! discarded or orphaned". Tip selection is by accumulated work (the
//! sum of block difficulties), with first-seen winning ties, which is
//! Bitcoin's actual rule and degenerates to "longest chain" at constant
//! difficulty. The `e04` ablation compares this with naive
//! longest-chain selection.
//!
//! Blocks that arrive before their parent wait in a bounded orphan
//! pool and are connected when the parent shows up (out-of-order
//! gossip delivery is routine in the simulations).
//!
//! Transaction ids are hashed once, when a block is offered (the Merkle
//! check needs them anyway), and kept beside the block. A
//! `(tx id, height)` index over the active chain, maintained on every
//! connect and disconnect, answers [`ChainStore::tx_confirmations`]
//! without scanning the chain.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dlt_crypto::merkle::merkle_root;
use dlt_crypto::Digest;

use crate::block::{Block, BlockHeader, LedgerTx};
use crate::pow::pow_valid;

/// Why a block was rejected outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockError {
    /// The header hash does not meet its difficulty target.
    BadPow,
    /// The header's Merkle root does not match the transactions.
    BadMerkleRoot,
    /// The height is not parent height + 1.
    BadHeight,
    /// A second genesis (parentless) block was offered.
    UnexpectedGenesis,
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::BadPow => f.write_str("proof of work does not meet target"),
            BlockError::BadMerkleRoot => f.write_str("merkle root does not match transactions"),
            BlockError::BadHeight => f.write_str("height is not parent height + 1"),
            BlockError::UnexpectedGenesis => f.write_str("unexpected second genesis block"),
        }
    }
}

impl std::error::Error for BlockError {}

/// The effect of inserting one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The active tip advanced; `applied` lists newly active block ids
    /// in chain order (usually just the inserted block, more when the
    /// insertion connected waiting orphans).
    Extended {
        /// The new tip id.
        new_tip: Digest,
        /// Newly active blocks, oldest first.
        applied: Vec<Digest>,
    },
    /// The active chain switched branches: `reverted` blocks (newest
    /// first) were abandoned — the paper's "orphaned" blocks whose
    /// transactions must be re-included — and `applied` blocks (oldest
    /// first) became active.
    Reorged {
        /// The abandoned tip.
        old_tip: Digest,
        /// The new tip id.
        new_tip: Digest,
        /// Blocks leaving the active chain, newest first.
        reverted: Vec<Digest>,
        /// Blocks entering the active chain, oldest first.
        applied: Vec<Digest>,
    },
    /// Valid block on a side branch; the tip did not move.
    SideChain,
    /// Parent unknown; the block waits in the orphan pool.
    AwaitingParent,
    /// Already known (including already waiting as an orphan).
    Duplicate,
    /// Structurally invalid; not stored.
    Rejected(BlockError),
}

struct StoredBlock<T> {
    block: Block<T>,
    /// The block's transaction ids, in block order.
    tx_ids: Vec<Digest>,
    chainwork: u128,
    arrival: u64,
}

/// A block that passed `insert`'s stateless checks, with the ids
/// computed there: what the orphan pool holds and `connect` takes.
struct Offered<T> {
    id: Digest,
    block: Block<T>,
    tx_ids: Vec<Digest>,
}

fn tx_ids_of<T: LedgerTx>(block: &Block<T>) -> Vec<Digest> {
    block.txs.iter().map(LedgerTx::id).collect()
}

/// Maximum blocks the orphan pool holds before evicting the oldest.
const MAX_ORPHANS: usize = 1024;

/// A store of all observed blocks with most-work fork choice.
pub struct ChainStore<T> {
    blocks: BTreeMap<Digest, StoredBlock<T>>,
    children: BTreeMap<Digest, Vec<Digest>>,
    /// Orphans keyed by the missing parent id.
    orphans: BTreeMap<Digest, Vec<Offered<T>>>,
    /// Ids of every pooled orphan.
    orphan_ids: BTreeSet<Digest>,
    /// Missing-parent ids in orphan arrival order (eviction order).
    orphan_arrivals: VecDeque<Digest>,
    /// Active chain by height: `active[h]` is the active block at
    /// height `h`.
    active: Vec<Digest>,
    /// Exactly the `(tx id, height)` pairs of the active blocks. A set
    /// of pairs, not a map: a transaction can sit in two active blocks,
    /// and the lowest height is the one that counts.
    tx_index: BTreeSet<(Digest, u64)>,
    genesis: Digest,
    arrival_seq: u64,
    validate_pow: bool,
}

impl<T: LedgerTx> ChainStore<T> {
    /// Creates a store rooted at `genesis`.
    ///
    /// # Panics
    ///
    /// Panics if `genesis` is not a genesis block (non-zero parent or
    /// non-zero height).
    pub fn new(genesis: Block<T>, validate_pow: bool) -> Self {
        assert!(genesis.header.is_genesis(), "genesis block required");
        let id = genesis.id();
        let tx_ids = tx_ids_of(&genesis);
        let tx_index = tx_ids.iter().map(|tx| (*tx, 0)).collect();
        let mut blocks = BTreeMap::new();
        blocks.insert(
            id,
            StoredBlock {
                chainwork: u128::from(genesis.header.difficulty),
                block: genesis,
                tx_ids,
                arrival: 0,
            },
        );
        ChainStore {
            blocks,
            children: BTreeMap::new(),
            orphans: BTreeMap::new(),
            orphan_ids: BTreeSet::new(),
            orphan_arrivals: VecDeque::new(),
            active: vec![id],
            tx_index,
            genesis: id,
            arrival_seq: 1,
            validate_pow,
        }
    }

    /// The genesis block id.
    pub fn genesis(&self) -> Digest {
        self.genesis
    }

    /// The current active tip id.
    pub fn tip(&self) -> Digest {
        *self.active.last().expect("active chain is never empty")
    }

    /// Height of the active tip.
    pub fn tip_height(&self) -> u64 {
        (self.active.len() - 1) as u64
    }

    /// The stored block for an id, if known.
    pub fn block(&self, id: &Digest) -> Option<&Block<T>> {
        self.blocks.get(id).map(|s| &s.block)
    }

    /// The transaction ids of a stored block, in block order.
    pub fn tx_ids(&self, id: &Digest) -> Option<&[Digest]> {
        self.blocks.get(id).map(|s| s.tx_ids.as_slice())
    }

    /// The header for an id, if known.
    pub fn header(&self, id: &Digest) -> Option<&BlockHeader> {
        self.block(id).map(|b| &b.header)
    }

    /// Accumulated work of a stored block's branch.
    pub fn chainwork(&self, id: &Digest) -> Option<u128> {
        self.blocks.get(id).map(|s| s.chainwork)
    }

    /// Whether the block id is known (connected; orphans don't count).
    pub fn contains(&self, id: &Digest) -> bool {
        self.blocks.contains_key(id)
    }

    /// Total connected blocks (active + side branches).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Blocks currently waiting for a parent.
    pub fn orphan_count(&self) -> usize {
        self.orphan_ids.len()
    }

    /// The active chain ids, genesis first.
    pub fn active_chain(&self) -> &[Digest] {
        &self.active
    }

    /// The active block id at `height`, if the chain is that tall.
    pub fn active_at(&self, height: u64) -> Option<Digest> {
        self.active.get(height as usize).copied()
    }

    /// Whether `id` is on the active chain.
    pub fn is_active(&self, id: &Digest) -> bool {
        let Some(stored) = self.blocks.get(id) else {
            return false;
        };
        self.active_at(stored.block.header.height) == Some(*id)
    }

    /// Confirmation count of a block: how many active blocks sit at or
    /// above it (1 = it is the tip). `None` for unknown or inactive
    /// blocks — the paper's point that inclusion in *a* block is not
    /// inclusion in *the* chain.
    pub fn confirmations(&self, id: &Digest) -> Option<u64> {
        if !self.is_active(id) {
            return None;
        }
        let height = self.blocks[id].block.header.height;
        Some(self.tip_height() - height + 1)
    }

    /// Confirmation count of a transaction: the confirmations of the
    /// lowest active block that holds it, or `None` if no active block
    /// does. Answered from the tx index, not by scanning the chain.
    pub fn tx_confirmations(&self, tx: &Digest) -> Option<u64> {
        self.tx_index
            .range((*tx, 0)..=(*tx, u64::MAX))
            .next()
            .map(|(_, height)| self.tip_height() - height + 1)
    }

    /// Number of stored blocks *not* on the active chain — the
    /// orphaned/"stale" blocks of Fig. 4.
    pub fn stale_block_count(&self) -> usize {
        self.blocks.len() - self.active.len()
    }

    /// Inserts a block, updating the tip if the block's branch now has
    /// the most accumulated work. Connects any waiting orphans.
    pub fn insert(&mut self, block: Block<T>) -> InsertOutcome {
        let id = block.id();
        if self.blocks.contains_key(&id) || self.orphan_ids.contains(&id) {
            return InsertOutcome::Duplicate;
        }
        if block.header.is_genesis() {
            return InsertOutcome::Rejected(BlockError::UnexpectedGenesis);
        }
        let tx_ids = tx_ids_of(&block);
        if merkle_root(&tx_ids) != block.header.merkle_root {
            return InsertOutcome::Rejected(BlockError::BadMerkleRoot);
        }
        if self.validate_pow && !pow_valid(&block.header) {
            return InsertOutcome::Rejected(BlockError::BadPow);
        }
        let offered = Offered { id, block, tx_ids };
        if !self.blocks.contains_key(&offered.block.header.parent) {
            self.pool_orphan(offered);
            return InsertOutcome::AwaitingParent;
        }

        let old_tip = self.tip();
        if let Err(err) = self.connect(offered) {
            return InsertOutcome::Rejected(err);
        }
        // Connecting one block may unlock a cascade of orphans.
        self.flush_orphans(id);
        self.outcome_since(old_tip)
    }

    fn pool_orphan(&mut self, orphan: Offered<T>) {
        let parent = orphan.block.header.parent;
        self.orphan_ids.insert(orphan.id);
        self.orphans.entry(parent).or_default().push(orphan);
        self.orphan_arrivals.push_back(parent);
        if self.orphan_arrivals.len() > MAX_ORPHANS {
            let Some(victim_parent) = self.orphan_arrivals.pop_front() else {
                return;
            };
            if let Some(list) = self.orphans.get_mut(&victim_parent) {
                if !list.is_empty() {
                    let victim = list.remove(0);
                    self.orphan_ids.remove(&victim.id);
                }
                if list.is_empty() {
                    self.orphans.remove(&victim_parent);
                }
            }
        }
    }

    /// Connects a block whose parent is present; updates indexes and
    /// possibly the active chain.
    fn connect(&mut self, offered: Offered<T>) -> Result<(), BlockError> {
        let Offered { id, block, tx_ids } = offered;
        let parent = &self.blocks[&block.header.parent];
        if block.header.height != parent.block.header.height + 1 {
            return Err(BlockError::BadHeight);
        }
        let chainwork = parent.chainwork + u128::from(block.header.difficulty);
        let parent_id = block.header.parent;
        let arrival = self.arrival_seq;
        self.arrival_seq += 1;
        self.blocks.insert(
            id,
            StoredBlock {
                block,
                tx_ids,
                chainwork,
                arrival,
            },
        );
        self.children.entry(parent_id).or_default().push(id);

        // Most-work fork choice; first-seen wins ties.
        let tip = self.tip();
        let tip_work = self.blocks[&tip].chainwork;
        if chainwork > tip_work {
            self.switch_active_to(id);
        }
        Ok(())
    }

    fn flush_orphans(&mut self, connected: Digest) {
        let mut ready = vec![connected];
        while let Some(parent) = ready.pop() {
            let Some(waiting) = self.orphans.remove(&parent) else {
                continue;
            };
            self.orphan_arrivals.retain(|p| *p != parent);
            for orphan in waiting {
                let id = orphan.id;
                self.orphan_ids.remove(&id);
                if self.connect(orphan).is_ok() {
                    ready.push(id);
                }
            }
        }
    }

    /// Rewrites the active chain so it ends at `new_tip`.
    fn switch_active_to(&mut self, new_tip: Digest) {
        // Build the path from new_tip back to the first block already
        // active at its height.
        let mut path = Vec::new();
        let mut cursor = new_tip;
        loop {
            let stored = &self.blocks[&cursor];
            let height = stored.block.header.height as usize;
            if self.active.get(height) == Some(&cursor) {
                break;
            }
            path.push(cursor);
            if cursor == self.genesis {
                break;
            }
            cursor = stored.block.header.parent;
        }
        path.reverse();
        let fork_height = self.blocks[&path[0]].block.header.height as usize;
        for (height, id) in self.active.iter().enumerate().skip(fork_height) {
            for tx in &self.blocks[id].tx_ids {
                self.tx_index.remove(&(*tx, height as u64));
            }
        }
        self.active.truncate(fork_height);
        for (height, id) in path.iter().enumerate() {
            let height = (fork_height + height) as u64;
            self.tx_index
                .extend(self.blocks[id].tx_ids.iter().map(|tx| (*tx, height)));
        }
        self.active.extend(path);
    }

    /// Describes how the tip moved relative to `old_tip`.
    fn outcome_since(&self, old_tip: Digest) -> InsertOutcome {
        let new_tip = self.tip();
        if new_tip == old_tip {
            return InsertOutcome::SideChain;
        }
        // Old tip still active => pure extension.
        if self.is_active(&old_tip) {
            let from = self.blocks[&old_tip].block.header.height as usize + 1;
            return InsertOutcome::Extended {
                new_tip,
                applied: self.active[from..].to_vec(),
            };
        }
        // Otherwise: reorg. Walk old branch back to the fork point.
        let mut reverted = Vec::new();
        let mut cursor = old_tip;
        while !self.is_active(&cursor) {
            reverted.push(cursor);
            cursor = self.blocks[&cursor].block.header.parent;
        }
        let fork_height = self.blocks[&cursor].block.header.height as usize;
        let applied = self.active[fork_height + 1..].to_vec();
        InsertOutcome::Reorged {
            old_tip,
            new_tip,
            reverted,
            applied,
        }
    }

    /// Removes a block and all its descendants from the store (the
    /// analogue of Bitcoin's `invalidateblock`), returning the removed
    /// ids. Used when a branch that won fork choice turns out to be
    /// semantically invalid (e.g. hides a double spend): the chain
    /// falls back to the best remaining branch.
    ///
    /// The genesis block cannot be invalidated.
    pub fn invalidate(&mut self, id: &Digest) -> Vec<Digest> {
        if *id == self.genesis || !self.blocks.contains_key(id) {
            return Vec::new();
        }
        // Collect the subtree rooted at `id`.
        let mut removed = Vec::new();
        let mut queue = vec![*id];
        while let Some(current) = queue.pop() {
            if let Some(children) = self.children.remove(&current) {
                queue.extend(children);
            }
            if self.blocks.remove(&current).is_some() {
                removed.push(current);
            }
        }
        // Unlink the removed subtree from surviving child lists.
        for children in self.children.values_mut() {
            children.retain(|c| !removed.contains(c));
        }
        // Rebuild the active chain from the best surviving block.
        let best = self
            .blocks
            .iter()
            .max_by_key(|(_, s)| (s.chainwork, std::cmp::Reverse(s.arrival)))
            .map(|(id, _)| *id)
            .expect("genesis always survives");
        let mut path = Vec::new();
        let mut cursor = best;
        loop {
            path.push(cursor);
            if cursor == self.genesis {
                break;
            }
            cursor = self.blocks[&cursor].block.header.parent;
        }
        path.reverse();
        self.active = path;
        self.tx_index.clear();
        for (height, id) in self.active.iter().enumerate() {
            self.tx_index
                .extend(self.blocks[id].tx_ids.iter().map(|tx| (*tx, height as u64)));
        }
        removed
    }

    /// The lowest common ancestor of two known blocks.
    pub fn common_ancestor(&self, a: &Digest, b: &Digest) -> Option<Digest> {
        let mut x = *a;
        let mut y = *b;
        let mut hx = self.blocks.get(&x)?.block.header.height;
        let mut hy = self.blocks.get(&y)?.block.header.height;
        while hx > hy {
            x = self.blocks[&x].block.header.parent;
            hx -= 1;
        }
        while hy > hx {
            y = self.blocks[&y].block.header.parent;
            hy -= 1;
        }
        while x != y {
            x = self.blocks[&x].block.header.parent;
            y = self.blocks[&y].block.header.parent;
        }
        Some(x)
    }

    /// Iterates the active chain's blocks, genesis first.
    pub fn iter_active(&self) -> impl Iterator<Item = &Block<T>> {
        self.active.iter().map(|id| &self.blocks[id].block)
    }

    /// Total encoded bytes of all stored blocks (ledger size, §V).
    pub fn total_bytes(&self) -> usize {
        self.blocks.values().map(|s| s.block.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::testutil::{header, TestTx};

    type TestChain = ChainStore<TestTx>;

    fn genesis() -> Block<TestTx> {
        Block::new(header(Digest::ZERO, 0), vec![])
    }

    /// Builds a child of `parent` with a distinguishing tag tx.
    fn child_of(parent: &Block<TestTx>, tag: u64) -> Block<TestTx> {
        let mut h = header(parent.id(), parent.header.height + 1);
        h.timestamp_micros = tag;
        Block::new(h, vec![TestTx::new(tag)])
    }

    /// Builds a child of the block with `parent_id`, which must already
    /// be in the store.
    fn child(store: &TestChain, parent_id: Digest, tag: u64) -> Block<TestTx> {
        child_of(store.block(&parent_id).expect("parent exists"), tag)
    }

    fn store() -> (TestChain, Digest) {
        let g = genesis();
        let gid = g.id();
        (ChainStore::new(g, false), gid)
    }

    #[test]
    fn fresh_store_is_at_genesis() {
        let (s, gid) = store();
        assert_eq!(s.tip(), gid);
        assert_eq!(s.tip_height(), 0);
        assert_eq!(s.block_count(), 1);
        assert!(s.is_active(&gid));
        assert_eq!(s.confirmations(&gid), Some(1));
    }

    #[test]
    fn linear_extension() {
        let (mut s, gid) = store();
        let b1 = child(&s, gid, 1);
        let b1_id = b1.id();
        match s.insert(b1) {
            InsertOutcome::Extended { new_tip, applied } => {
                assert_eq!(new_tip, b1_id);
                assert_eq!(applied, vec![b1_id]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        let b2 = child(&s, b1_id, 2);
        let b2_id = b2.id();
        s.insert(b2);
        assert_eq!(s.tip(), b2_id);
        assert_eq!(s.tip_height(), 2);
        assert_eq!(s.confirmations(&b1_id), Some(2));
        assert_eq!(s.confirmations(&b2_id), Some(1));
    }

    #[test]
    fn duplicate_detected() {
        let (mut s, gid) = store();
        let b1 = child(&s, gid, 1);
        s.insert(b1.clone());
        assert_eq!(s.insert(b1), InsertOutcome::Duplicate);
    }

    #[test]
    fn competing_block_is_side_chain_and_first_seen_wins_tie() {
        let (mut s, gid) = store();
        let a = child(&s, gid, 1);
        let b = child(&s, gid, 2);
        let a_id = a.id();
        s.insert(a);
        assert_eq!(s.insert(b), InsertOutcome::SideChain);
        assert_eq!(s.tip(), a_id, "first seen keeps the tip on a tie");
        assert_eq!(s.stale_block_count(), 1);
    }

    #[test]
    fn longer_side_branch_triggers_reorg() {
        let (mut s, gid) = store();
        let a1 = child(&s, gid, 1);
        let a1_id = a1.id();
        s.insert(a1);
        // Competing branch b1, b2.
        let b1 = child(&s, gid, 10);
        let b1_id = b1.id();
        s.insert(b1);
        assert_eq!(s.tip(), a1_id);
        let b2 = child(&s, b1_id, 11);
        let b2_id = b2.id();
        match s.insert(b2) {
            InsertOutcome::Reorged {
                old_tip,
                new_tip,
                reverted,
                applied,
            } => {
                assert_eq!(old_tip, a1_id);
                assert_eq!(new_tip, b2_id);
                assert_eq!(reverted, vec![a1_id]);
                assert_eq!(applied, vec![b1_id, b2_id]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(!s.is_active(&a1_id));
        assert_eq!(s.confirmations(&a1_id), None);
        assert_eq!(s.tip_height(), 2);
    }

    #[test]
    fn orphan_waits_for_parent_then_connects() {
        let (mut s, gid) = store();
        let b1 = child(&s, gid, 1);
        let b1_id = b1.id();
        let b2 = child_of(&b1, 2);
        let b2_id = b2.id();
        // Deliver child first.
        assert_eq!(s.insert(b2), InsertOutcome::AwaitingParent);
        assert_eq!(s.orphan_count(), 1);
        assert_eq!(s.tip(), gid);
        // Parent arrives; both connect, tip jumps two heights.
        match s.insert(b1) {
            InsertOutcome::Extended { new_tip, applied } => {
                assert_eq!(new_tip, b2_id);
                assert_eq!(applied, vec![b1_id, b2_id]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(s.orphan_count(), 0);
        assert_eq!(s.tip_height(), 2);
    }

    #[test]
    fn orphan_duplicate_detected() {
        let (mut s, gid) = store();
        let b1 = child(&s, gid, 1);
        let b2 = child_of(&b1, 2);
        assert_eq!(s.insert(b2.clone()), InsertOutcome::AwaitingParent);
        assert_eq!(s.insert(b2), InsertOutcome::Duplicate);
    }

    #[test]
    fn evicted_orphan_offered_again_is_pooled_not_duplicate() {
        let (mut s, _gid) = store();
        // Orphans on distinct unknown parents; the first is evicted
        // once the pool overflows.
        let orphan = |tag: u64| {
            let mut h = header(dlt_crypto::sha256::sha256(&tag.to_be_bytes()), 1);
            h.timestamp_micros = tag;
            Block::new(h, vec![TestTx::new(tag)])
        };
        let first = orphan(0);
        assert_eq!(s.insert(first.clone()), InsertOutcome::AwaitingParent);
        for tag in 1..=MAX_ORPHANS as u64 {
            assert_eq!(s.insert(orphan(tag)), InsertOutcome::AwaitingParent);
        }
        assert_eq!(s.orphan_count(), MAX_ORPHANS);
        assert_eq!(s.insert(first), InsertOutcome::AwaitingParent);
        assert_eq!(s.orphan_count(), MAX_ORPHANS);
        // The second-oldest was evicted in turn.
        assert_eq!(s.insert(orphan(1)), InsertOutcome::AwaitingParent);
        assert_eq!(
            s.insert(orphan(MAX_ORPHANS as u64)),
            InsertOutcome::Duplicate
        );
    }

    #[test]
    fn tx_confirmations_follow_extension_and_reorg() {
        let (mut s, gid) = store();
        let tx = TestTx::new(7).id();
        let a1 = child(&s, gid, 1);
        let a2 = Block::new(header(a1.id(), 2), vec![TestTx::new(7)]);
        let b1 = child(&s, gid, 10);
        let b2 = child_of(&b1, 11);
        let b3 = child_of(&b2, 12);
        s.insert(a1);
        assert_eq!(s.tx_confirmations(&tx), None);
        s.insert(a2);
        assert_eq!(s.tx_confirmations(&tx), Some(1));
        assert_eq!(s.tx_confirmations(&TestTx::new(1).id()), Some(2));
        s.insert(b1);
        s.insert(b2);
        assert_eq!(s.tx_confirmations(&tx), Some(1), "tie keeps branch a");
        assert!(matches!(s.insert(b3), InsertOutcome::Reorged { .. }));
        assert_eq!(s.tx_confirmations(&tx), None, "reverted with branch a");
        assert_eq!(s.tx_confirmations(&TestTx::new(1).id()), None);
        assert_eq!(s.tx_confirmations(&TestTx::new(10).id()), Some(3));
    }

    #[test]
    fn tx_in_two_active_blocks_counts_from_the_lowest() {
        let (mut s, gid) = store();
        let tx = TestTx::new(5);
        let b1 = Block::new(header(gid, 1), vec![tx.clone()]);
        let b2 = Block::new(header(b1.id(), 2), vec![tx.clone()]);
        let b3 = child_of(&b2, 3);
        let b1_id = b1.id();
        s.insert(b1);
        s.insert(b2);
        s.insert(b3);
        assert_eq!(s.tx_confirmations(&tx.id()), Some(3));
        // Dropping the lower copy leaves the chain at genesis.
        s.invalidate(&b1_id);
        assert_eq!(s.tx_confirmations(&tx.id()), None);
    }

    #[test]
    fn orphan_cascade_connects_deep_chain() {
        let (mut s, gid) = store();
        let b1 = child(&s, gid, 1);
        let b2 = child_of(&b1, 2);
        let b3 = child_of(&b2, 3);
        let b3_id = b3.id();
        s.insert(b3);
        s.insert(b2);
        assert_eq!(s.tip(), gid);
        assert_eq!(s.orphan_count(), 2);
        s.insert(b1);
        assert_eq!(s.tip(), b3_id);
        assert_eq!(s.orphan_count(), 0);
    }

    #[test]
    fn bad_height_rejected() {
        let (mut s, gid) = store();
        let mut h = header(gid, 5); // parent is at height 0
        h.timestamp_micros = 1;
        let bad = Block::new(h, vec![]);
        assert_eq!(
            s.insert(bad),
            InsertOutcome::Rejected(BlockError::BadHeight)
        );
    }

    #[test]
    fn bad_merkle_root_rejected() {
        let (mut s, gid) = store();
        let mut b = child(&s, gid, 1);
        b.header.merkle_root = dlt_crypto::sha256::sha256(b"wrong");
        assert_eq!(
            s.insert(b),
            InsertOutcome::Rejected(BlockError::BadMerkleRoot)
        );
    }

    #[test]
    fn second_genesis_rejected() {
        let (mut s, _gid) = store();
        let mut h = header(Digest::ZERO, 0);
        h.timestamp_micros = 42;
        let g2 = Block::new(h, vec![TestTx::new(1)]);
        assert_eq!(
            s.insert(g2),
            InsertOutcome::Rejected(BlockError::UnexpectedGenesis)
        );
    }

    #[test]
    fn pow_validation_enforced_when_enabled() {
        let g = genesis();
        let gid = g.id();
        let mut s = ChainStore::new(g, true);
        let mut h = header(gid, 1);
        h.difficulty = u64::MAX; // unminable
        let b = Block::new(h, vec![]);
        assert_eq!(s.insert(b), InsertOutcome::Rejected(BlockError::BadPow));

        // A genuinely mined block passes.
        let mut h2 = header(gid, 1);
        h2.difficulty = 16;
        let mut b2 = Block::new(h2, vec![]);
        crate::pow::mine_real(&mut b2.header, 1_000_000).unwrap();
        assert!(matches!(s.insert(b2), InsertOutcome::Extended { .. }));
    }

    #[test]
    fn most_work_beats_longest_chain() {
        // A short heavy branch must beat a long light one: fork choice
        // is by accumulated work, not raw length.
        let (mut s, gid) = store();
        // Light branch: three blocks of difficulty 1.
        let l1 = child(&s, gid, 1);
        let l2 = child_of(&l1, 2);
        let l3 = child_of(&l2, 3);
        let l3_id = l3.id();
        s.insert(l1);
        s.insert(l2);
        s.insert(l3);
        assert_eq!(s.tip(), l3_id);
        // Heavy branch: one block of difficulty 100.
        let mut hh = header(gid, 1);
        hh.timestamp_micros = 99;
        hh.difficulty = 100;
        let heavy = Block::new(hh, vec![]);
        let heavy_id = heavy.id();
        assert!(matches!(s.insert(heavy), InsertOutcome::Reorged { .. }));
        assert_eq!(s.tip(), heavy_id);
        assert_eq!(s.tip_height(), 1);
    }

    #[test]
    fn common_ancestor_of_forked_branches() {
        let (mut s, gid) = store();
        let a1 = child(&s, gid, 1);
        let a2 = child_of(&a1, 2);
        let b1 = child(&s, gid, 10);
        let (a1_id, a2_id, b1_id) = (a1.id(), a2.id(), b1.id());
        s.insert(a1);
        s.insert(a2);
        s.insert(b1);
        assert_eq!(s.common_ancestor(&a2_id, &b1_id), Some(gid));
        assert_eq!(s.common_ancestor(&a2_id, &a1_id), Some(a1_id));
        assert_eq!(s.common_ancestor(&a2_id, &a2_id), Some(a2_id));
    }

    #[test]
    fn iter_active_is_genesis_first() {
        let (mut s, gid) = store();
        let b1 = child(&s, gid, 1);
        let b2 = child_of(&b1, 2);
        let ids = [gid, b1.id(), b2.id()];
        s.insert(b1);
        s.insert(b2);
        let walked: Vec<Digest> = s.iter_active().map(Block::id).collect();
        assert_eq!(walked, ids);
    }

    #[test]
    fn invalidate_removes_subtree_and_falls_back() {
        let (mut s, gid) = store();
        let a1 = child(&s, gid, 1);
        let a2 = child_of(&a1, 2);
        let b1 = child(&s, gid, 10);
        let (a1_id, a2_id, b1_id) = (a1.id(), a2.id(), b1.id());
        s.insert(a1);
        s.insert(a2);
        s.insert(b1);
        assert_eq!(s.tip(), a2_id);
        let removed = s.invalidate(&a1_id);
        assert_eq!(removed.len(), 2);
        assert!(!s.contains(&a1_id));
        assert!(!s.contains(&a2_id));
        // Falls back to the surviving branch.
        assert_eq!(s.tip(), b1_id);
        assert!(s.is_active(&b1_id));
        assert_eq!(s.tx_confirmations(&TestTx::new(1).id()), None);
        assert_eq!(s.tx_confirmations(&TestTx::new(10).id()), Some(1));
    }

    #[test]
    fn invalidate_genesis_is_refused() {
        let (mut s, gid) = store();
        assert!(s.invalidate(&gid).is_empty());
        assert_eq!(s.tip(), gid);
    }

    #[test]
    fn invalidate_unknown_is_noop() {
        let (mut s, _gid) = store();
        assert!(s
            .invalidate(&dlt_crypto::sha256::sha256(b"nope"))
            .is_empty());
    }

    #[test]
    fn total_bytes_counts_all_branches() {
        let (mut s, gid) = store();
        let base = s.total_bytes();
        let a = child(&s, gid, 1);
        let b = child(&s, gid, 2);
        s.insert(a);
        s.insert(b);
        assert!(s.total_bytes() > base);
        assert_eq!(s.block_count(), 3);
    }
}
