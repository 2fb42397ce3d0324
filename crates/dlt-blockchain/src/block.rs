//! Blocks and block headers (paper §II-A, Fig. 1).
//!
//! A block couples a [`BlockHeader`] — carrying the hash link to its
//! predecessor, the Merkle root of its transactions and the consensus
//! fields — with the transaction list itself. The header layout is the
//! union of what the Bitcoin-like and Ethereum-like chains need; fields
//! a given chain doesn't use stay at their zero values (exactly as real
//! headers carry chain-specific fields).
//!
//! Transactions are abstracted by [`LedgerTx`] so the chain store,
//! mempool and miner are shared between the UTXO and account models.
//!
//! A [`SharedBlock`] is one immutable allocation of a block together
//! with its header id and transaction ids, hashed once when it is
//! built. Gossip, every node's chain store and the miner that produced
//! it hold the same allocation, so relaying or storing a block copies a
//! pointer and no holder hashes its transactions again.

use std::ops::Deref;
use std::rc::Rc;

use dlt_crypto::codec::Encode;
use dlt_crypto::keys::Address;
use dlt_crypto::merkle::merkle_root;
use dlt_crypto::sha256::double_sha256;
use dlt_crypto::Digest;

/// The interface a transaction exposes to chain-level machinery.
pub trait LedgerTx: Clone {
    /// The transaction identifier (hash of its encoding).
    fn id(&self) -> Digest;

    /// Fee paid to the block producer.
    fn fee(&self) -> u64;

    /// Capacity consumed inside a block: *bytes* for the Bitcoin-like
    /// chain, *gas* for the Ethereum-like chain (paper §VI-A).
    fn weight(&self) -> u64;

    /// Serialized size in bytes (ledger-size accounting, §V).
    fn encoded_size(&self) -> usize;

    /// Whether this is a block producer's reward transaction. A
    /// reverted block's coinbase is dropped, never pooled again.
    fn is_coinbase(&self) -> bool {
        false
    }
}

/// A block header: everything needed to verify chain linkage and
/// proof-of-work/stake without the transaction bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Hash of the predecessor block ([`Digest::ZERO`] for genesis).
    pub parent: Digest,
    /// Distance from genesis (genesis = 0).
    pub height: u64,
    /// Merkle root over the block's transaction ids.
    pub merkle_root: Digest,
    /// Root of the global state trie after this block
    /// (Ethereum-like chains only; zero otherwise).
    pub state_root: Digest,
    /// Merkle root over the block's receipts (Ethereum-like only).
    pub receipts_root: Digest,
    /// Block creation time in simulated microseconds.
    pub timestamp_micros: u64,
    /// Difficulty as the expected number of hash attempts to find a
    /// valid nonce. The PoW target is derived from this value.
    pub difficulty: u64,
    /// The free variable of the PoW puzzle.
    pub nonce: u64,
    /// Gas consumed by the block's transactions (Ethereum-like only).
    pub gas_used: u64,
    /// The block's gas limit (Ethereum-like only; dynamic per §VI-A).
    pub gas_limit: u64,
    /// Block proposer (proof-of-stake chains; [`Address::ZERO`] under
    /// PoW where the coinbase already names the miner).
    pub proposer: Address,
}

impl BlockHeader {
    /// The block identifier: the double SHA-256 of the encoded header,
    /// as Bitcoin computes block hashes.
    pub fn id(&self) -> Digest {
        double_sha256(&self.encode_to_vec())
    }

    /// Returns the header's encoded size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }

    /// Whether this is a genesis header (no parent).
    pub fn is_genesis(&self) -> bool {
        self.parent.is_zero() && self.height == 0
    }
}

impl Encode for BlockHeader {
    fn encode(&self, out: &mut Vec<u8>) {
        self.parent.encode(out);
        self.height.encode(out);
        self.merkle_root.encode(out);
        self.state_root.encode(out);
        self.receipts_root.encode(out);
        self.timestamp_micros.encode(out);
        self.difficulty.encode(out);
        self.nonce.encode(out);
        self.gas_used.encode(out);
        self.gas_limit.encode(out);
        self.proposer.encode(out);
    }
}

/// A block: header plus transaction list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block<T> {
    /// The block header.
    pub header: BlockHeader,
    /// The transactions, in execution order.
    pub txs: Vec<T>,
}

impl<T: LedgerTx> Block<T> {
    /// Assembles a block over `txs` with the Merkle root precomputed.
    /// Consensus fields (`difficulty`, `nonce`, …) start at the values
    /// in `header` and are typically finalised by the miner.
    pub fn new(mut header: BlockHeader, txs: Vec<T>) -> Self {
        header.merkle_root = merkle_root(&txs.iter().map(LedgerTx::id).collect::<Vec<_>>());
        Block { header, txs }
    }

    /// A transaction-less genesis block — the anchor for experiments
    /// and network simulations that exercise chain structure without
    /// ledger semantics.
    pub fn empty_genesis() -> Self {
        Block::new(
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
            vec![],
        )
    }

    /// The block identifier (the header hash).
    pub fn id(&self) -> Digest {
        self.header.id()
    }

    /// Recomputes the Merkle root from the transaction bodies and
    /// compares it with the header (tamper check; paper Fig. 1).
    pub fn merkle_root_valid(&self) -> bool {
        let leaves: Vec<Digest> = self.txs.iter().map(LedgerTx::id).collect();
        merkle_root(&leaves) == self.header.merkle_root
    }

    /// Sum of transaction fees (the block producer's income beside the
    /// subsidy).
    pub fn total_fee(&self) -> u64 {
        self.txs.iter().map(LedgerTx::fee).sum()
    }

    /// Sum of transaction weights (bytes or gas).
    pub fn total_weight(&self) -> u64 {
        self.txs.iter().map(LedgerTx::weight).sum()
    }

    /// Serialized size in bytes: header plus transaction bodies.
    pub fn size_bytes(&self) -> usize {
        self.header.size_bytes() + self.txs.iter().map(LedgerTx::encoded_size).sum::<usize>()
    }
}

/// A block behind one shared, immutable allocation, with the ids every
/// holder would otherwise recompute: the header id, the transaction ids
/// in block order, and whether their Merkle root matches the header.
///
/// Cloning copies a pointer. There is no setter: the ids are computed
/// from the content once, in [`SharedBlock::new`] or
/// [`SharedBlock::build`], and the content cannot change afterwards.
/// It dereferences to the [`Block`].
#[derive(Debug, PartialEq, Eq)]
pub struct SharedBlock<T>(Rc<HashedBlock<T>>);

#[derive(Debug, PartialEq, Eq)]
struct HashedBlock<T> {
    block: Block<T>,
    id: Digest,
    tx_ids: Vec<Digest>,
    merkle_root_valid: bool,
}

impl<T: LedgerTx> SharedBlock<T> {
    /// Wraps a block as received, hashing each transaction once. A
    /// block whose transactions do not match its header's Merkle root
    /// is still wrapped; [`SharedBlock::merkle_root_valid`] says so.
    pub fn new(block: Block<T>) -> Self {
        let tx_ids: Vec<Digest> = block.txs.iter().map(LedgerTx::id).collect();
        let merkle_root_valid = merkle_root(&tx_ids) == block.header.merkle_root;
        Self::seal(block, tx_ids, merkle_root_valid)
    }

    /// Assembles a block over `txs` as [`Block::new`] does, keeping the
    /// transaction ids its Merkle root was computed from.
    pub fn build(mut header: BlockHeader, txs: Vec<T>) -> Self {
        let tx_ids: Vec<Digest> = txs.iter().map(LedgerTx::id).collect();
        header.merkle_root = merkle_root(&tx_ids);
        Self::seal(Block { header, txs }, tx_ids, true)
    }

    fn seal(block: Block<T>, tx_ids: Vec<Digest>, merkle_root_valid: bool) -> Self {
        SharedBlock(Rc::new(HashedBlock {
            id: block.header.id(),
            block,
            tx_ids,
            merkle_root_valid,
        }))
    }

    /// The block identifier (the header hash), computed once.
    pub fn id(&self) -> Digest {
        self.0.id
    }

    /// The transaction ids, in block order, computed once.
    pub fn tx_ids(&self) -> &[Digest] {
        &self.0.tx_ids
    }

    /// Whether the header's Merkle root commits to these transactions
    /// (paper Fig. 1), checked once over [`SharedBlock::tx_ids`].
    pub fn merkle_root_valid(&self) -> bool {
        self.0.merkle_root_valid
    }
}

impl<T> Clone for SharedBlock<T> {
    fn clone(&self) -> Self {
        SharedBlock(Rc::clone(&self.0))
    }
}

impl<T> Deref for SharedBlock<T> {
    type Target = Block<T>;

    fn deref(&self) -> &Block<T> {
        &self.0.block
    }
}

impl<T: LedgerTx> From<Block<T>> for SharedBlock<T> {
    fn from(block: Block<T>) -> Self {
        SharedBlock::new(block)
    }
}

/// Public test-support helpers: a minimal transaction and block
/// constructors for chain-level tests in downstream crates that do not
/// care about UTXO/account semantics. Not part of the stable ledger
/// API.
pub mod testsupport {
    use super::*;
    use dlt_crypto::sha256::sha256;

    /// A dummy transaction with explicit fee and weight.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TestTx {
        /// Distinguishing tag (drives the id).
        pub tag: u64,
        /// Fee paid.
        pub fee: u64,
        /// Block-capacity weight.
        pub weight: u64,
    }

    impl LedgerTx for TestTx {
        fn id(&self) -> Digest {
            sha256(&self.tag.to_be_bytes())
        }
        fn fee(&self) -> u64 {
            self.fee
        }
        fn weight(&self) -> u64 {
            self.weight
        }
        fn encoded_size(&self) -> usize {
            24
        }
    }

    /// Builds a test transaction.
    pub fn test_tx(tag: u64, fee: u64, weight: u64) -> TestTx {
        TestTx { tag, fee, weight }
    }

    /// An empty test genesis block.
    pub fn test_genesis() -> Block<TestTx> {
        Block::new(test_header(Digest::ZERO, 0, 1), vec![])
    }

    /// A child block of `parent` distinguished by `tag` with the given
    /// difficulty.
    pub fn test_block(parent: &Block<TestTx>, tag: u64, difficulty: u64) -> Block<TestTx> {
        let mut header = test_header(parent.id(), parent.header.height + 1, difficulty);
        header.timestamp_micros = tag;
        Block::new(header, vec![test_tx(tag, 1, 100)])
    }

    /// A bare header with sane defaults.
    pub fn test_header(parent: Digest, height: u64, difficulty: u64) -> BlockHeader {
        BlockHeader {
            parent,
            height,
            merkle_root: Digest::ZERO,
            state_root: Digest::ZERO,
            receipts_root: Digest::ZERO,
            timestamp_micros: height * 1_000_000,
            difficulty,
            nonce: 0,
            gas_used: 0,
            gas_limit: 0,
            proposer: Address::ZERO,
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! A minimal transaction used by chain-level unit tests that don't
    //! care about UTXO/account semantics.
    use super::*;
    use dlt_crypto::sha256::sha256;
    use std::cell::Cell;

    std::thread_local! {
        static ID_CALLS: Cell<u64> = const { Cell::new(0) };
    }

    /// How many times [`TestTx::id`] has run in the calling test (each
    /// test runs on its own thread).
    pub fn id_calls() -> u64 {
        ID_CALLS.get()
    }

    /// A dummy transaction with explicit fee and weight.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TestTx {
        pub tag: u64,
        pub fee: u64,
        pub weight: u64,
    }

    impl TestTx {
        pub fn new(tag: u64) -> Self {
            TestTx {
                tag,
                fee: 1,
                weight: 100,
            }
        }
    }

    impl LedgerTx for TestTx {
        fn id(&self) -> Digest {
            ID_CALLS.set(ID_CALLS.get() + 1);
            sha256(&self.tag.to_be_bytes())
        }
        fn fee(&self) -> u64 {
            self.fee
        }
        fn weight(&self) -> u64 {
            self.weight
        }
        fn encoded_size(&self) -> usize {
            24
        }
    }

    /// A bare header at the given height/parent with sane defaults.
    pub fn header(parent: Digest, height: u64) -> BlockHeader {
        BlockHeader {
            parent,
            height,
            merkle_root: Digest::ZERO,
            state_root: Digest::ZERO,
            receipts_root: Digest::ZERO,
            timestamp_micros: height * 1_000_000,
            difficulty: 1,
            nonce: 0,
            gas_used: 0,
            gas_limit: 0,
            proposer: Address::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{self, header, TestTx};
    use super::*;

    #[test]
    fn header_id_changes_with_any_field() {
        let base = header(Digest::ZERO, 0);
        let edits: [fn(&mut BlockHeader); 11] = [
            |h| h.parent = dlt_crypto::sha256::sha256(b"parent"),
            |h| h.height = 1,
            |h| h.merkle_root = dlt_crypto::sha256::sha256(b"other"),
            |h| h.state_root = dlt_crypto::sha256::sha256(b"state"),
            |h| h.receipts_root = dlt_crypto::sha256::sha256(b"receipts"),
            |h| h.timestamp_micros += 1,
            |h| h.difficulty = 77,
            |h| h.nonce = 99,
            |h| h.gas_used += 1,
            |h| h.gas_limit += 1,
            |h| h.proposer = Address::from_label("proposer"),
        ];
        for edit in edits {
            let mut changed = base.clone();
            edit(&mut changed);
            assert_ne!(changed.id(), base.id());
        }
    }

    #[test]
    fn header_codec_round_trip() {
        let mut h = header(dlt_crypto::sha256::sha256(b"parent"), 5);
        h.gas_used = 21_000;
        h.gas_limit = 8_000_000;
        assert_eq!(h.size_bytes(), h.encode_to_vec().len());
    }

    #[test]
    fn genesis_detection() {
        assert!(header(Digest::ZERO, 0).is_genesis());
        assert!(!header(dlt_crypto::sha256::sha256(b"x"), 1).is_genesis());
    }

    #[test]
    fn block_merkle_root_detects_tamper() {
        let txs: Vec<TestTx> = (0..5).map(TestTx::new).collect();
        let mut block = Block::new(header(Digest::ZERO, 0), txs);
        assert!(block.merkle_root_valid());
        block.txs[2].tag = 999;
        assert!(!block.merkle_root_valid());
    }

    #[test]
    fn shared_block_hashes_each_tx_once_and_shares_on_clone() {
        let txs: Vec<TestTx> = (0..5).map(TestTx::new).collect();
        let ids: Vec<Digest> = txs.iter().map(TestTx::id).collect();
        let before = testutil::id_calls();
        let shared = SharedBlock::build(header(Digest::ZERO, 0), txs);
        assert_eq!(testutil::id_calls() - before, 5);
        let copy = shared.clone();
        assert_eq!(copy.tx_ids(), ids.as_slice());
        assert_eq!(copy.id(), shared.header.id());
        assert!(std::ptr::eq::<Block<TestTx>>(&*copy, &*shared));
        assert!(copy.merkle_root_valid());
        assert_eq!(testutil::id_calls() - before, 5, "a clone hashes nothing");
        assert_eq!(
            *shared,
            Block::new(shared.header.clone(), shared.txs.clone())
        );
    }

    #[test]
    fn block_aggregates() {
        let txs: Vec<TestTx> = (0..4).map(TestTx::new).collect();
        let block = Block::new(header(Digest::ZERO, 0), txs);
        assert_eq!(block.total_fee(), 4);
        assert_eq!(block.total_weight(), 400);
        assert_eq!(block.size_bytes(), block.header.size_bytes() + 4 * 24);
    }

    #[test]
    fn empty_block_is_fine() {
        let block: Block<TestTx> = Block::new(header(Digest::ZERO, 0), vec![]);
        assert!(block.merkle_root_valid());
        assert_eq!(block.total_weight(), 0);
    }

    #[test]
    fn block_id_depends_on_txs_via_merkle_root() {
        let a = Block::new(header(Digest::ZERO, 0), vec![TestTx::new(1)]);
        let b = Block::new(header(Digest::ZERO, 0), vec![TestTx::new(2)]);
        assert_ne!(a.id(), b.id());
    }
}
