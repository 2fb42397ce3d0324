//! The account/gas transaction model (Ethereum-like, paper §II-A).
//!
//! Instead of unspent outputs, the ledger's state is a map from account
//! address to `(nonce, balance)`, stored in a Merkle Patricia
//! [`TrieDb`] whose root hash is committed in every block header. A
//! transaction names its sender (public key), recipient, amount and a
//! *nonce* (the sender's transaction counter, which orders an account's
//! transactions and blocks replays).
//!
//! Computation is metered in **gas** (paper §VI-A): every transaction
//! consumes an intrinsic 21 000 gas plus a per-payload-byte cost, and
//! pays `gas_used × gas_price` to the block producer. Block capacity is
//! a *gas limit*, not a byte count.
//!
//! Because the state trie is versioned by root hash, reorgs are trivial
//! (re-point at the old root) and the paper's two pruning strategies —
//! state-delta garbage collection and fast sync — fall out of
//! [`TrieDb`]'s structural sharing.

use dlt_crypto::codec::{Decode, DecodeError, Encode};
use dlt_crypto::keys::{Address, PublicKey, Signature};
use dlt_crypto::merkle::merkle_root;
use dlt_crypto::sha256::{sha256, Sha256};
use dlt_crypto::trie::TrieDb;
use dlt_crypto::Digest;

use crate::block::{Block, LedgerTx};

/// Gas charged to every transaction (Ethereum's `G_transaction`).
pub const INTRINSIC_GAS: u64 = 21_000;
/// Gas charged per payload byte (Ethereum's non-zero calldata cost).
pub const GAS_PER_PAYLOAD_BYTE: u64 = 68;

/// One account's state: transaction counter and balance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccountState {
    /// Number of transactions this account has sent.
    pub nonce: u64,
    /// Balance in base units.
    pub balance: u64,
}

impl Encode for AccountState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.nonce.encode(out);
        self.balance.encode(out);
    }
}

impl Decode for AccountState {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(AccountState {
            nonce: u64::decode(input)?,
            balance: u64::decode(input)?,
        })
    }
}

/// An account-model transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccountTx {
    /// Sender's public key; the sender account is its address hash.
    pub from: PublicKey,
    /// Recipient address.
    pub to: Address,
    /// Amount transferred.
    pub amount: u64,
    /// Sender's nonce at send time (orders the account's transactions).
    pub nonce: u64,
    /// Fee per gas unit.
    pub gas_price: u64,
    /// Simulated contract payload size in bytes (drives gas usage; zero
    /// for a plain transfer).
    pub payload_bytes: u32,
    /// Signature over [`AccountTx::sighash`].
    pub signature: Signature,
}

impl AccountTx {
    /// The gas this transaction consumes.
    pub fn gas_used(&self) -> u64 {
        INTRINSIC_GAS + GAS_PER_PAYLOAD_BYTE * u64::from(self.payload_bytes)
    }

    /// The message the sender signs: everything except the signature.
    pub fn sighash(&self) -> Digest {
        sighash_over(
            &self.from,
            &self.to,
            self.amount,
            self.nonce,
            self.gas_price,
            self.payload_bytes,
        )
    }

    /// The sender's account address.
    pub fn sender(&self) -> Address {
        self.from.address()
    }
}

/// Computes the signing message from the signed fields (used both by
/// [`AccountTx::sighash`] and by [`AccountHolder`], which signs before
/// the transaction exists).
fn sighash_over(
    from: &PublicKey,
    to: &Address,
    amount: u64,
    nonce: u64,
    gas_price: u64,
    payload_bytes: u32,
) -> Digest {
    let mut h = Sha256::new();
    h.update(b"account-sighash");
    let mut buf = Vec::new();
    from.encode(&mut buf);
    to.encode(&mut buf);
    amount.encode(&mut buf);
    nonce.encode(&mut buf);
    gas_price.encode(&mut buf);
    payload_bytes.encode(&mut buf);
    h.update(&buf);
    h.finalize()
}

impl Encode for AccountTx {
    fn encode(&self, out: &mut Vec<u8>) {
        self.from.encode(out);
        self.to.encode(out);
        self.amount.encode(out);
        self.nonce.encode(out);
        self.gas_price.encode(out);
        self.payload_bytes.encode(out);
        self.signature.encode(out);
        // The payload content is simulated as zero bytes; only its size
        // matters (gas and ledger-size accounting).
        out.extend(std::iter::repeat_n(0u8, self.payload_bytes as usize));
    }
    fn encoded_len(&self) -> usize {
        self.from.encoded_len()
            + self.to.encoded_len()
            + self.amount.encoded_len()
            + self.nonce.encoded_len()
            + self.gas_price.encoded_len()
            + self.payload_bytes.encoded_len()
            + self.signature.encoded_len()
            + self.payload_bytes as usize
    }
}

impl Decode for AccountTx {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let tx = AccountTx {
            from: PublicKey::decode(input)?,
            to: Address::decode(input)?,
            amount: u64::decode(input)?,
            nonce: u64::decode(input)?,
            gas_price: u64::decode(input)?,
            payload_bytes: u32::decode(input)?,
            signature: Signature::decode(input)?,
        };
        // Skip the simulated payload padding.
        let pad = tx.payload_bytes as usize;
        if input.len() < pad {
            return Err(DecodeError::UnexpectedEnd);
        }
        *input = &input[pad..];
        Ok(tx)
    }
}

impl LedgerTx for AccountTx {
    fn id(&self) -> Digest {
        sha256(&self.encode_to_vec())
    }
    fn fee(&self) -> u64 {
        self.gas_used() * self.gas_price
    }
    /// Block capacity in the account model is *gas*, not bytes.
    fn weight(&self) -> u64 {
        self.gas_used()
    }
    fn encoded_size(&self) -> usize {
        self.encoded_len()
    }
}

/// A transaction execution receipt (paper §V-A: fast sync "downloads
/// the transaction receipts along the blocks").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// The executed transaction.
    pub tx_id: Digest,
    /// Whether execution succeeded.
    pub success: bool,
    /// Gas consumed by this transaction.
    pub gas_used: u64,
    /// Gas consumed by the block up to and including this transaction.
    pub cumulative_gas: u64,
}

impl Receipt {
    /// The receipt's hash (leaf of the receipts root).
    pub fn hash(&self) -> Digest {
        sha256(&self.encode_to_vec())
    }
}

impl Encode for Receipt {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tx_id.encode(out);
        self.success.encode(out);
        self.gas_used.encode(out);
        self.cumulative_gas.encode(out);
    }
}

impl Decode for Receipt {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Receipt {
            tx_id: Digest::decode(input)?,
            success: bool::decode(input)?,
            gas_used: u64::decode(input)?,
            cumulative_gas: u64::decode(input)?,
        })
    }
}

/// Computes the Merkle root over a block's receipts.
pub fn receipts_root(receipts: &[Receipt]) -> Digest {
    merkle_root(&receipts.iter().map(Receipt::hash).collect::<Vec<_>>())
}

/// Why an account-model transaction or block failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccountError {
    /// The signature doesn't verify under the sender key.
    BadSignature,
    /// The nonce doesn't match the sender's account nonce.
    BadNonce {
        /// The account's expected next nonce.
        expected: u64,
        /// The nonce the transaction carried.
        got: u64,
    },
    /// Balance cannot cover amount + fee.
    InsufficientBalance,
    /// The block's transactions exceed its gas limit.
    BlockGasExceeded,
    /// The header's state root doesn't match the post-execution state.
    StateRootMismatch,
    /// The header's receipts root doesn't match the receipts.
    ReceiptsRootMismatch,
}

impl std::fmt::Display for AccountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccountError::BadSignature => f.write_str("invalid sender signature"),
            AccountError::BadNonce { expected, got } => {
                write!(f, "bad nonce: expected {expected}, got {got}")
            }
            AccountError::InsufficientBalance => f.write_str("insufficient balance"),
            AccountError::BlockGasExceeded => f.write_str("block gas limit exceeded"),
            AccountError::StateRootMismatch => f.write_str("state root mismatch"),
            AccountError::ReceiptsRootMismatch => f.write_str("receipts root mismatch"),
        }
    }
}

impl std::error::Error for AccountError {}

/// The global state database: a versioned account trie.
#[derive(Debug, Clone)]
pub struct StateDb {
    trie: TrieDb,
}

impl Default for StateDb {
    fn default() -> Self {
        Self::new()
    }
}

impl StateDb {
    /// Creates an empty state database. Every transaction's signature
    /// is verified.
    pub fn new() -> Self {
        StateDb {
            trie: TrieDb::new(),
        }
    }

    /// The empty-state root.
    pub fn empty_root() -> Digest {
        TrieDb::EMPTY_ROOT
    }

    /// Reads an account at a state version (zero state for absent
    /// accounts, as Ethereum treats untouched addresses).
    pub fn account(&self, root: Digest, address: &Address) -> AccountState {
        match self.trie.get(root, address.0.as_bytes()) {
            None => AccountState::default(),
            Some(bytes) => {
                let mut slice = bytes;
                AccountState::decode(&mut slice).expect("stored account states are well-formed")
            }
        }
    }

    /// Writes an account, returning the new state root.
    pub fn set_account(&mut self, root: Digest, address: &Address, state: AccountState) -> Digest {
        self.trie
            .insert(root, address.0.as_bytes(), state.encode_to_vec())
    }

    /// Credits an amount to an account (minting or fee payment).
    pub fn credit(&mut self, root: Digest, address: &Address, amount: u64) -> Digest {
        let mut state = self.account(root, address);
        state.balance += amount;
        self.set_account(root, address, state)
    }

    /// Executes one transaction on `root`, returning the new root and
    /// the receipt. The fee goes to `producer`.
    ///
    /// # Errors
    ///
    /// Signature, nonce and balance violations reject the transaction
    /// without changing state.
    pub fn apply_tx(
        &mut self,
        root: Digest,
        tx: &AccountTx,
        producer: &Address,
    ) -> Result<(Digest, Receipt), AccountError> {
        if !tx.signature.verify(&tx.sighash(), &tx.from) {
            return Err(AccountError::BadSignature);
        }
        let sender_addr = tx.sender();
        let mut sender = self.account(root, &sender_addr);
        if tx.nonce != sender.nonce {
            return Err(AccountError::BadNonce {
                expected: sender.nonce,
                got: tx.nonce,
            });
        }
        let fee = tx.fee();
        let total = tx
            .amount
            .checked_add(fee)
            .ok_or(AccountError::InsufficientBalance)?;
        if sender.balance < total {
            return Err(AccountError::InsufficientBalance);
        }
        sender.nonce += 1;
        sender.balance -= total;
        let mut new_root = self.set_account(root, &sender_addr, sender);

        // Self-transfers and producer fee credits must re-read state.
        let mut recipient = self.account(new_root, &tx.to);
        recipient.balance += tx.amount;
        new_root = self.set_account(new_root, &tx.to, recipient);

        let mut producer_state = self.account(new_root, producer);
        producer_state.balance += fee;
        new_root = self.set_account(new_root, producer, producer_state);

        let receipt = Receipt {
            tx_id: tx.id(),
            success: true,
            gas_used: tx.gas_used(),
            cumulative_gas: 0, // filled by the block applier
        };
        Ok((new_root, receipt))
    }

    /// Executes a block on `parent_root`: all transactions in order,
    /// then the block reward to `producer`. Enforces the block gas
    /// limit and, when the header commits to roots, verifies the
    /// post-state root and receipts root.
    ///
    /// Returns the post-state root and the receipts.
    ///
    /// # Errors
    ///
    /// Any failure leaves previously-committed state versions intact
    /// (the trie is persistent); the caller just discards the returned
    /// root.
    pub fn apply_block(
        &mut self,
        parent_root: Digest,
        block: &Block<AccountTx>,
        producer: &Address,
        block_reward: u64,
    ) -> Result<(Digest, Vec<Receipt>), AccountError> {
        let gas_limit = block.header.gas_limit;
        let mut gas_total = 0u64;
        let mut root = parent_root;
        let mut receipts = Vec::with_capacity(block.txs.len());
        for tx in &block.txs {
            gas_total += tx.gas_used();
            if gas_limit > 0 && gas_total > gas_limit {
                return Err(AccountError::BlockGasExceeded);
            }
            let (new_root, mut receipt) = self.apply_tx(root, tx, producer)?;
            receipt.cumulative_gas = gas_total;
            root = new_root;
            receipts.push(receipt);
        }
        if block_reward > 0 {
            root = self.credit(root, producer, block_reward);
        }
        if !block.header.state_root.is_zero() && block.header.state_root != root {
            return Err(AccountError::StateRootMismatch);
        }
        if !block.header.receipts_root.is_zero()
            && block.header.receipts_root != receipts_root(&receipts)
        {
            return Err(AccountError::ReceiptsRootMismatch);
        }
        Ok((root, receipts))
    }

    /// Direct access to the underlying trie (pruning, fast sync,
    /// size accounting).
    pub fn trie(&self) -> &TrieDb {
        &self.trie
    }

    /// Mutable trie access (garbage collection).
    pub fn trie_mut(&mut self) -> &mut TrieDb {
        &mut self.trie
    }
}

/// An account-holder: keypair plus nonce tracking, for tests, examples
/// and workload generators.
#[derive(Debug)]
pub struct AccountHolder {
    keypair: dlt_crypto::keys::Keypair,
    next_nonce: u64,
}

impl AccountHolder {
    /// Creates an account identity from a seed. `height` bounds how
    /// many transactions the account can ever sign (`2^height`).
    pub fn from_seed(seed: [u8; 32], height: u32) -> Self {
        AccountHolder {
            keypair: dlt_crypto::keys::Keypair::mss_from_seed(seed, height),
            next_nonce: 0,
        }
    }

    /// The account's address.
    pub fn address(&self) -> Address {
        self.keypair.address()
    }

    /// The account's public key.
    pub fn public_key(&self) -> PublicKey {
        self.keypair.public_key()
    }

    /// Builds and signs a transfer, consuming the next nonce.
    ///
    /// # Panics
    ///
    /// Panics if the underlying MSS key is exhausted (capacity is a
    /// constructor parameter; size workloads accordingly).
    pub fn transfer(&mut self, to: Address, amount: u64, gas_price: u64) -> AccountTx {
        self.transfer_with_payload(to, amount, gas_price, 0)
    }

    /// Builds and signs a transfer carrying a simulated contract
    /// payload of `payload_bytes`, consuming the next nonce: hashes the
    /// signed fields, signs that hash with the account's next one-time
    /// leaf, then assembles the transaction.
    ///
    /// # Panics
    ///
    /// Panics if the underlying MSS key is exhausted.
    pub fn transfer_with_payload(
        &mut self,
        to: Address,
        amount: u64,
        gas_price: u64,
        payload_bytes: u32,
    ) -> AccountTx {
        let from = self.public_key();
        let nonce = self.next_nonce;
        let sighash = sighash_over(&from, &to, amount, nonce, gas_price, payload_bytes);
        let signature = self
            .keypair
            .sign(&sighash)
            .expect("account key exhausted: construct AccountHolder with more height");
        self.next_nonce += 1;
        AccountTx {
            from,
            to,
            amount,
            nonce,
            gas_price,
            payload_bytes,
            signature,
        }
    }

    /// The nonce the next transaction will carry.
    pub fn next_nonce(&self) -> u64 {
        self.next_nonce
    }

    /// Remaining signature capacity.
    pub fn remaining_signatures(&self) -> u32 {
        self.keypair.remaining().unwrap_or(u32::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::testutil::header;

    fn holder(tag: u8) -> AccountHolder {
        AccountHolder::from_seed([tag; 32], 4)
    }

    fn producer() -> Address {
        Address::from_label("producer")
    }

    /// Sets up a state with `alice` funded.
    fn funded(db: &mut StateDb, alice: &AccountHolder, amount: u64) -> Digest {
        db.credit(StateDb::empty_root(), &alice.address(), amount)
    }

    #[test]
    fn credit_and_read_account() {
        let mut db = StateDb::new();
        let addr = Address::from_label("x");
        let root = db.credit(StateDb::empty_root(), &addr, 500);
        assert_eq!(db.account(root, &addr).balance, 500);
        assert_eq!(db.account(root, &addr).nonce, 0);
        // Untouched accounts read as zero.
        assert_eq!(
            db.account(root, &Address::from_label("y")),
            AccountState::default()
        );
    }

    #[test]
    fn transfer_moves_value_and_pays_gas() {
        let mut db = StateDb::new();
        let mut alice = holder(1);
        let bob = Address::from_label("bob");
        let root = funded(&mut db, &alice, 1_000_000);
        let tx = alice.transfer(bob, 100, 2);
        let fee = tx.fee();
        assert_eq!(fee, 2 * INTRINSIC_GAS);
        let (root, receipt) = db.apply_tx(root, &tx, &producer()).unwrap();
        assert_eq!(db.account(root, &bob).balance, 100);
        assert_eq!(db.account(root, &producer()).balance, fee);
        assert_eq!(
            db.account(root, &alice.address()).balance,
            1_000_000 - 100 - fee
        );
        assert_eq!(db.account(root, &alice.address()).nonce, 1);
        assert!(receipt.success);
        assert_eq!(receipt.gas_used, INTRINSIC_GAS);
    }

    #[test]
    fn payload_increases_gas() {
        let mut alice = holder(2);
        let tx = alice.transfer_with_payload(Address::from_label("b"), 0, 1, 100);
        assert_eq!(tx.gas_used(), INTRINSIC_GAS + 100 * GAS_PER_PAYLOAD_BYTE);
        assert_eq!(tx.weight(), tx.gas_used());
        // Payload bytes count toward encoded size.
        let plain = holder(3).transfer(Address::from_label("b"), 0, 1);
        assert!(tx.encoded_size() > plain.encoded_size() + 90);
    }

    #[test]
    fn wrong_nonce_rejected() {
        let mut db = StateDb::new();
        let mut alice = holder(4);
        let root = funded(&mut db, &alice, 1_000_000);
        let tx1 = alice.transfer(Address::from_label("b"), 1, 1);
        let tx2 = alice.transfer(Address::from_label("b"), 1, 1);
        // Apply out of order: tx2 first.
        let err = db.apply_tx(root, &tx2, &producer()).unwrap_err();
        assert_eq!(
            err,
            AccountError::BadNonce {
                expected: 0,
                got: 1
            }
        );
        // In order works.
        let (root, _) = db.apply_tx(root, &tx1, &producer()).unwrap();
        let (_root, _) = db.apply_tx(root, &tx2, &producer()).unwrap();
    }

    #[test]
    fn replay_rejected_by_nonce() {
        let mut db = StateDb::new();
        let mut alice = holder(5);
        let root = funded(&mut db, &alice, 1_000_000);
        let tx = alice.transfer(Address::from_label("b"), 10, 1);
        let (root, _) = db.apply_tx(root, &tx, &producer()).unwrap();
        let err = db.apply_tx(root, &tx, &producer()).unwrap_err();
        assert!(matches!(err, AccountError::BadNonce { .. }));
    }

    #[test]
    fn insufficient_balance_rejected() {
        let mut db = StateDb::new();
        let mut alice = holder(6);
        let root = funded(&mut db, &alice, 10); // can't even pay gas
        let tx = alice.transfer(Address::from_label("b"), 1, 1);
        assert_eq!(
            db.apply_tx(root, &tx, &producer()).unwrap_err(),
            AccountError::InsufficientBalance
        );
    }

    #[test]
    fn bad_signature_rejected() {
        let mut db = StateDb::new();
        let mut alice = holder(7);
        let root = funded(&mut db, &alice, 1_000_000);
        let mut tx = alice.transfer(Address::from_label("b"), 10, 1);
        tx.amount = 999; // invalidate the signed content
        assert_eq!(
            db.apply_tx(root, &tx, &producer()).unwrap_err(),
            AccountError::BadSignature
        );
    }

    #[test]
    fn self_transfer_only_burns_fee() {
        let mut db = StateDb::new();
        let mut alice = holder(8);
        let root = funded(&mut db, &alice, 1_000_000);
        let me = alice.address();
        let tx = alice.transfer(me, 300, 1);
        let fee = tx.fee();
        let (root, _) = db.apply_tx(root, &tx, &producer()).unwrap();
        assert_eq!(db.account(root, &me).balance, 1_000_000 - fee);
        assert_eq!(db.account(root, &me).nonce, 1);
    }

    #[test]
    fn block_application_and_roots() {
        let mut db = StateDb::new();
        let mut alice = holder(9);
        let bob = Address::from_label("bob");
        let genesis_root = funded(&mut db, &alice, 10_000_000);

        let txs = vec![alice.transfer(bob, 100, 1), alice.transfer(bob, 200, 1)];
        let mut h = header(sha256(b"parent").into(), 1);
        h.gas_limit = 1_000_000;
        let block = Block::new(h, txs);
        let (root, receipts) = db
            .apply_block(genesis_root, &block, &producer(), 50)
            .unwrap();
        assert_eq!(db.account(root, &bob).balance, 300);
        assert_eq!(receipts.len(), 2);
        assert_eq!(receipts[1].cumulative_gas, 2 * INTRINSIC_GAS);
        // Producer got both fees plus the reward.
        assert_eq!(
            db.account(root, &producer()).balance,
            2 * INTRINSIC_GAS + 50
        );
        // Old version still readable (persistence enables reorgs).
        assert_eq!(db.account(genesis_root, &bob).balance, 0);
    }

    fn sha256(b: &[u8]) -> [u8; 32] {
        dlt_crypto::sha256::sha256(b).into_bytes()
    }

    #[test]
    fn block_gas_limit_enforced() {
        let mut db = StateDb::new();
        let mut alice = holder(10);
        let root = funded(&mut db, &alice, 10_000_000);
        let txs = vec![
            alice.transfer(Address::from_label("b"), 1, 1),
            alice.transfer(Address::from_label("b"), 1, 1),
        ];
        let mut h = header(sha256(b"p").into(), 1);
        h.gas_limit = INTRINSIC_GAS + 1; // only one tx fits
        let block = Block::new(h, txs);
        assert_eq!(
            db.apply_block(root, &block, &producer(), 0).unwrap_err(),
            AccountError::BlockGasExceeded
        );
    }

    #[test]
    fn state_root_commitment_verified() {
        let mut db = StateDb::new();
        let mut alice = holder(11);
        let root = funded(&mut db, &alice, 10_000_000);
        let txs = vec![alice.transfer(Address::from_label("b"), 1, 1)];
        let mut h = header(sha256(b"p").into(), 1);
        h.gas_limit = 1_000_000;
        h.state_root = dlt_crypto::sha256::sha256(b"wrong root");
        let block = Block::new(h, txs);
        assert_eq!(
            db.apply_block(root, &block, &producer(), 0).unwrap_err(),
            AccountError::StateRootMismatch
        );
    }

    #[test]
    fn receipts_root_commitment_verified() {
        let mut db = StateDb::new();
        let mut alice = holder(12);
        let root = funded(&mut db, &alice, 10_000_000);
        let txs = vec![alice.transfer(Address::from_label("b"), 1, 1)];
        let mut h = header(sha256(b"p").into(), 1);
        h.gas_limit = 1_000_000;
        h.receipts_root = dlt_crypto::sha256::sha256(b"wrong receipts");
        let block = Block::new(h, txs);
        assert_eq!(
            db.apply_block(root, &block, &producer(), 0).unwrap_err(),
            AccountError::ReceiptsRootMismatch
        );
    }

    #[test]
    fn receipts_root_is_order_sensitive() {
        let a = Receipt {
            tx_id: dlt_crypto::sha256::sha256(b"a"),
            success: true,
            gas_used: 1,
            cumulative_gas: 1,
        };
        let b = Receipt {
            tx_id: dlt_crypto::sha256::sha256(b"b"),
            success: true,
            gas_used: 2,
            cumulative_gas: 3,
        };
        assert_ne!(
            receipts_root(&[a.clone(), b.clone()]),
            receipts_root(&[b, a])
        );
    }

    #[test]
    fn tx_codec_round_trip() {
        use dlt_crypto::codec::{decode_exact, Encode};
        let mut alice = holder(13);
        let tx = alice.transfer_with_payload(Address::from_label("b"), 5, 3, 0);
        let back: AccountTx = decode_exact(&tx.encode_to_vec()).unwrap();
        assert_eq!(back, tx);
        assert_eq!(back.id(), tx.id());
    }

    #[test]
    fn sighash_excludes_signature() {
        let mut alice = holder(16);
        let tx = alice.transfer(Address::from_label("b"), 10, 1);
        let sighash = tx.sighash();
        assert!(tx.signature.verify(&sighash, &tx.from));
        // A different valid signature by the same key (the next leaf,
        // over the same sighash) leaves the sighash unchanged.
        let mut key = dlt_crypto::keys::Keypair::mss_from_seed([16; 32], 4);
        key.sign(&sighash).unwrap();
        let mut resigned = tx.clone();
        resigned.signature = key.sign(&sighash).unwrap();
        assert_ne!(resigned.signature, tx.signature);
        assert!(resigned.signature.verify(&sighash, &resigned.from));
        assert_eq!(resigned.sighash(), sighash);
        // But signed fields change it.
        let mut modified = tx;
        modified.nonce += 1;
        assert_ne!(modified.sighash(), sighash);
    }

    #[test]
    fn transfer_is_pinned() {
        // The full encoding, signature and payload padding included.
        use dlt_crypto::codec::Encode;
        let mut alice = holder(15);
        alice.transfer(Address::from_label("b"), 1, 1);
        let tx = alice.transfer_with_payload(Address::from_label("golden"), 77, 3, 5);
        assert_eq!(
            dlt_crypto::sha256::sha256(&tx.encode_to_vec()).to_hex(),
            "4c4d07803001985ed8c7f573a7a502cb9c66a955cf210025fcd3c8da343d8074"
        );
    }
}
