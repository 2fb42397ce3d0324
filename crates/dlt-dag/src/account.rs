//! An account holder: builds signed, worked lattice blocks.
//!
//! "Users are obligated to order their own transactions" (§III-B) — a
//! [`NanoAccount`] is that user-side state: the keypair, the local view
//! of the chain head and balance, and the block construction logic
//! (including computing the anti-spam work for each block, which is
//! what couples "network usage and transaction verification" in §VI-B).

use dlt_crypto::keys::{Address, Keypair, PublicKey};
use dlt_crypto::Digest;

use crate::block::{hash_over, BlockKind, LatticeBlock};

/// Why a block could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccountBuildError {
    /// Balance cannot cover the send amount.
    InsufficientBalance,
    /// The account's one-time signature capacity is exhausted.
    KeyExhausted,
    /// A receive on a fresh account must be its first block; a
    /// non-first receive needs the chain opened first.
    NothingToReceive,
}

impl std::fmt::Display for AccountBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            AccountBuildError::InsufficientBalance => "insufficient balance",
            AccountBuildError::KeyExhausted => "account key exhausted",
            AccountBuildError::NothingToReceive => "nothing to receive",
        };
        f.write_str(text)
    }
}

impl std::error::Error for AccountBuildError {}

/// A user's account: keypair plus local chain state.
#[derive(Debug, Clone)]
pub struct NanoAccount {
    keypair: Keypair,
    head: Digest,
    balance: u64,
    representative: Address,
    difficulty_bits: u32,
}

impl NanoAccount {
    /// Derives an account from a seed. `height` bounds lifetime
    /// signatures at `2^height`; `difficulty_bits` is the anti-spam
    /// work the network demands per block.
    pub fn from_seed(seed: [u8; 32], height: u32, difficulty_bits: u32) -> Self {
        let keypair = Keypair::mss_from_seed(seed, height);
        let representative = keypair.address(); // self-represent by default
        NanoAccount {
            keypair,
            head: Digest::ZERO,
            balance: 0,
            representative,
            difficulty_bits,
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

    /// The local view of the chain head (zero before the first block).
    pub fn head(&self) -> Digest {
        self.head
    }

    /// The local balance.
    pub fn balance(&self) -> u64 {
        self.balance
    }

    /// The current representative choice.
    pub fn representative(&self) -> Address {
        self.representative
    }

    /// Remaining signatures before the key exhausts.
    pub fn remaining_signatures(&self) -> u32 {
        self.keypair.remaining().unwrap_or(u32::MAX)
    }

    /// Clones the account state — the tool an *attacker* (or test)
    /// uses to sign two different blocks for the same chain position,
    /// i.e. to manufacture the forks of §IV-B.
    pub fn fork_state(&self) -> NanoAccount {
        self.clone()
    }

    /// Changes which representative future blocks delegate to (takes
    /// effect on the next block; issue `change_representative` to apply
    /// it immediately).
    pub fn set_representative(&mut self, rep: Address) {
        self.representative = rep;
    }

    /// Builds the next block of this chain: hashes the fields the block
    /// hash covers, signs that hash with the account's next one-time
    /// leaf, assembles the block, attaches its anti-spam work and
    /// advances the local head and balance. Signing is the only key
    /// operation.
    fn build(
        &mut self,
        kind: BlockKind,
        new_balance: u64,
    ) -> Result<LatticeBlock, AccountBuildError> {
        let account_key = self.public_key();
        let account = account_key.address();
        let hash = hash_over(
            &account,
            &account_key,
            &self.head,
            &self.representative,
            new_balance,
            &kind,
        );
        let signature = self
            .keypair
            .sign(&hash)
            .map_err(|_| AccountBuildError::KeyExhausted)?;
        let mut block = LatticeBlock {
            account,
            account_key,
            previous: self.head,
            representative: self.representative,
            balance: new_balance,
            kind,
            work: 0,
            signature,
        };
        block.work = LatticeBlock::compute_work(&block.work_root(), self.difficulty_bits);
        self.head = hash;
        self.balance = new_balance;
        Ok(block)
    }

    /// The genesis block: a receive-from-nowhere minting `supply`.
    ///
    /// # Panics
    ///
    /// Panics if this account has already issued blocks.
    pub fn genesis_block(&mut self, supply: u64) -> LatticeBlock {
        assert!(self.head.is_zero(), "genesis must be the first block");
        self.build(
            BlockKind::Receive {
                source: Digest::ZERO,
            },
            supply,
        )
        .expect("fresh key signs the genesis")
    }

    /// Builds a send of `amount` to `destination` (Fig. 3 "S").
    ///
    /// # Errors
    ///
    /// [`AccountBuildError::InsufficientBalance`] or
    /// [`AccountBuildError::KeyExhausted`].
    pub fn send(
        &mut self,
        destination: Address,
        amount: u64,
    ) -> Result<LatticeBlock, AccountBuildError> {
        if amount == 0 || amount > self.balance {
            return Err(AccountBuildError::InsufficientBalance);
        }
        let new_balance = self.balance - amount;
        self.build(BlockKind::Send { destination }, new_balance)
    }

    /// Builds the receive claiming a pending send of `amount`
    /// (Fig. 3 "R"); opens the account chain if this is its first
    /// block.
    ///
    /// # Errors
    ///
    /// [`AccountBuildError::KeyExhausted`].
    pub fn receive(
        &mut self,
        source: Digest,
        amount: u64,
    ) -> Result<LatticeBlock, AccountBuildError> {
        let new_balance = self.balance + amount;
        self.build(BlockKind::Receive { source }, new_balance)
    }

    /// Builds a representative change block (§III-B: a representative
    /// "can be changed over time").
    ///
    /// # Errors
    ///
    /// [`AccountBuildError::KeyExhausted`].
    pub fn change_representative(
        &mut self,
        representative: Address,
    ) -> Result<LatticeBlock, AccountBuildError> {
        self.representative = representative;
        self.build(BlockKind::Change, self.balance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn account(tag: u8) -> NanoAccount {
        NanoAccount::from_seed([tag; 32], 3, 2)
    }

    #[test]
    fn genesis_block_shape() {
        let mut genesis = account(1);
        let block = genesis.genesis_block(500);
        assert!(block.is_first());
        assert_eq!(block.balance, 500);
        assert!(matches!(block.kind, BlockKind::Receive { source } if source.is_zero()));
        assert!(block.work_valid(2));
        assert!(block.signature.verify(&block.hash(), &block.account_key));
        assert_eq!(genesis.balance(), 500);
        assert_eq!(genesis.head(), block.hash());
    }

    #[test]
    fn send_decrements_local_balance_and_links_chain() {
        let mut genesis = account(2);
        let g = genesis.genesis_block(100);
        let send = genesis.send(Address::from_label("x"), 30).unwrap();
        assert_eq!(send.previous, g.hash());
        assert_eq!(send.balance, 70);
        assert_eq!(genesis.balance(), 70);
    }

    #[test]
    fn overspend_refused() {
        let mut genesis = account(3);
        genesis.genesis_block(10);
        assert_eq!(
            genesis.send(Address::from_label("x"), 11),
            Err(AccountBuildError::InsufficientBalance)
        );
        assert_eq!(
            genesis.send(Address::from_label("x"), 0),
            Err(AccountBuildError::InsufficientBalance)
        );
    }

    #[test]
    fn key_exhaustion_reported() {
        let mut tiny = NanoAccount::from_seed([4u8; 32], 1, 2); // 2 sigs
        tiny.genesis_block(100);
        tiny.send(Address::from_label("a"), 1).unwrap();
        assert_eq!(
            tiny.send(Address::from_label("b"), 1),
            Err(AccountBuildError::KeyExhausted)
        );
    }

    #[test]
    fn fork_state_produces_conflicting_blocks() {
        let mut honest = account(5);
        honest.genesis_block(100);
        let mut evil = honest.fork_state();
        let a = honest.send(Address::from_label("a"), 10).unwrap();
        let b = evil.send(Address::from_label("b"), 20).unwrap();
        assert_eq!(a.previous, b.previous);
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn representative_persists_across_blocks() {
        let mut acct = account(6);
        acct.genesis_block(100);
        let rep = Address::from_label("rep");
        let change = acct.change_representative(rep).unwrap();
        assert_eq!(change.representative, rep);
        let send = acct.send(Address::from_label("x"), 1).unwrap();
        assert_eq!(send.representative, rep);
    }

    #[test]
    fn built_blocks_are_pinned() {
        // The full encoding (fields, work and signature) of a genesis
        // and a send, so any change to hashing, signing or assembly that
        // moves a byte fails here.
        use dlt_crypto::codec::Encode;
        use dlt_crypto::sha256::sha256;
        let mut acct = account(7);
        let genesis = acct.genesis_block(1_000);
        let send = acct.send(Address::from_label("golden"), 250).unwrap();
        assert_eq!(
            sha256(&genesis.encode_to_vec()).to_hex(),
            "7353b68f40ceb2fa67eac69de9f847530fa8928ffcb904cf3358cdb8ac15289a"
        );
        assert_eq!(
            sha256(&send.encode_to_vec()).to_hex(),
            "da83ba73fed2358d137615797394149a04559161f90480462cce3fb6ac150fe8"
        );
    }
}
