//! A Plasma-style nested chain (paper §VI-A).
//!
//! "The framework creates a nested blockchain structure … Only Merkle
//! roots created in the sidechains are periodically broadcasted to the
//! main network during non-faulty states allowing scalable
//! transactions. For faulty states, stakeholders need to display proof
//! of fraud and the Byzantine node gets penalized."
//!
//! The model: an *operator* runs a child chain with its own account
//! balances. Users deposit from the root chain, transact at child-chain
//! speed, and the operator periodically commits only the Merkle root of
//! each child block to the root chain (one root-chain transaction per
//! child block, regardless of how many transfers it carries).
//!
//! If the operator commits a block containing an invalid transaction,
//! any stakeholder holding the block data can submit a **fraud proof**:
//! the Merkle inclusion proof of the offending transaction against the
//! *committed* root, which the root chain re-checks against the last
//! verified state. A proven fraud slashes the operator's bond and halts
//! the child chain so users exit with the last verified balances.

use std::collections::BTreeMap;

use dlt_crypto::keys::Address;
use dlt_crypto::merkle::{MerkleProof, MerkleTree};
use dlt_crypto::sha256::Sha256;
use dlt_crypto::Digest;

/// A child-chain transfer (identity-level authentication, as with
/// votes: signatures add nothing to the measured §VI behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChildTx {
    /// Paying account.
    pub from: Address,
    /// Receiving account.
    pub to: Address,
    /// Transferred amount.
    pub amount: u64,
    /// Sender-chosen unique tag (prevents identical-tx hash collisions).
    pub tag: u64,
}

impl ChildTx {
    /// The transaction hash (a Merkle leaf of its child block).
    pub fn id(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"plasma-tx");
        h.update(self.from.0.as_bytes());
        h.update(self.to.0.as_bytes());
        h.update(&self.amount.to_be_bytes());
        h.update(&self.tag.to_be_bytes());
        h.finalize()
    }
}

/// A root-chain commitment: the Merkle root of one child block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commitment {
    /// Child-chain height of the committed block.
    pub child_height: u64,
    /// Merkle root over the block's transaction ids.
    pub root: Digest,
}

/// Errors from child-chain operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlasmaError {
    /// Sender cannot cover the transfer.
    InsufficientBalance,
    /// The chain is halted after proven fraud.
    Halted,
    /// The fraud proof's Merkle path doesn't match the commitment.
    BadProof,
    /// The referenced commitment doesn't exist.
    UnknownCommitment,
    /// The transaction in the proof is actually valid — no fraud.
    NotFraud,
    /// Exit for an account with no balance.
    NothingToExit,
}

impl std::fmt::Display for PlasmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            PlasmaError::InsufficientBalance => "insufficient child-chain balance",
            PlasmaError::Halted => "child chain is halted after fraud",
            PlasmaError::BadProof => "fraud proof does not match commitment",
            PlasmaError::UnknownCommitment => "unknown commitment",
            PlasmaError::NotFraud => "transaction is valid; no fraud",
            PlasmaError::NothingToExit => "no balance to exit",
        };
        f.write_str(text)
    }
}

impl std::error::Error for PlasmaError {}

/// The operator's child chain plus the root-chain contract state.
#[derive(Debug)]
pub struct PlasmaChain {
    /// The operator's slashable bond held by the root-chain contract.
    operator_bond: u64,
    /// Whether fraud has been proven (chain halted, exits only).
    halted: bool,
    /// Committed child blocks (block data kept by stakeholders).
    blocks: Vec<Vec<ChildTx>>,
    /// The root-chain contract's record: one commitment per block.
    commitments: Vec<Commitment>,
    /// Balance snapshots *after* each verified block (index 0 = after
    /// deposits, before block 0). Snapshots are what exits use.
    snapshots: Vec<BTreeMap<Address, u64>>,
    /// Live child-chain balances.
    balances: BTreeMap<Address, u64>,
    /// Pending (unconfirmed) child transactions.
    pending: Vec<ChildTx>,
    /// Root-chain transactions consumed (deposits + commitments +
    /// exits + fraud proofs) — the §VI-A scalability metric.
    pub root_chain_txs: u64,
    tag_seq: u64,
}

impl PlasmaChain {
    /// Deploys a child chain whose operator posts `bond` on the root
    /// chain.
    pub fn new(bond: u64) -> Self {
        PlasmaChain {
            operator_bond: bond,
            halted: false,
            blocks: Vec::new(),
            commitments: Vec::new(),
            snapshots: vec![BTreeMap::new()],
            balances: BTreeMap::new(),
            pending: Vec::new(),
            root_chain_txs: 1, // the deployment/bond tx
            tag_seq: 0,
        }
    }

    /// The operator's remaining bond.
    pub fn operator_bond(&self) -> u64 {
        self.operator_bond
    }

    /// Whether the chain has been halted by a fraud proof.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// A user's live child-chain balance.
    pub fn balance(&self, account: &Address) -> u64 {
        self.balances.get(account).copied().unwrap_or(0)
    }

    /// Deposits from the root chain (one root-chain transaction).
    pub fn deposit(&mut self, account: Address, amount: u64) -> Result<(), PlasmaError> {
        if self.halted {
            return Err(PlasmaError::Halted);
        }
        *self.balances.entry(account).or_insert(0) += amount;
        // Deposits between blocks amend the latest snapshot (they are
        // root-chain facts, not operator claims).
        *self
            .snapshots
            .last_mut()
            .expect("snapshot 0 exists")
            .entry(account)
            .or_insert(0) += amount;
        self.root_chain_txs += 1;
        Ok(())
    }

    /// Submits a transfer to the operator's pending set.
    pub fn submit(
        &mut self,
        from: Address,
        to: Address,
        amount: u64,
    ) -> Result<Digest, PlasmaError> {
        if self.halted {
            return Err(PlasmaError::Halted);
        }
        if self.balance(&from) < amount {
            return Err(PlasmaError::InsufficientBalance);
        }
        // Reserve immediately so pending transactions cannot conflict.
        *self.balances.get_mut(&from).expect("checked") -= amount;
        *self.balances.entry(to).or_insert(0) += amount;
        let tx = ChildTx {
            from,
            to,
            amount,
            tag: self.tag_seq,
        };
        self.tag_seq += 1;
        self.pending.push(tx);
        Ok(tx.id())
    }

    /// The operator seals pending transactions into a child block and
    /// commits only its Merkle root to the root chain (one root-chain
    /// transaction for the whole block).
    pub fn commit_block(&mut self) -> Result<Commitment, PlasmaError> {
        if self.halted {
            return Err(PlasmaError::Halted);
        }
        let txs = std::mem::take(&mut self.pending);
        self.commit_raw(txs)
    }

    /// A Byzantine operator commits a block containing arbitrary
    /// transactions without validation — the "faulty state" of §VI-A,
    /// exposed for tests and experiments.
    pub fn commit_block_byzantine(&mut self, txs: Vec<ChildTx>) -> Result<Commitment, PlasmaError> {
        if self.halted {
            return Err(PlasmaError::Halted);
        }
        self.commit_raw(txs)
    }

    fn commit_raw(&mut self, txs: Vec<ChildTx>) -> Result<Commitment, PlasmaError> {
        let leaves: Vec<Digest> = txs.iter().map(ChildTx::id).collect();
        let root = MerkleTree::from_leaves(leaves).root();
        let commitment = Commitment {
            child_height: self.blocks.len() as u64,
            root,
        };
        // Snapshot = previous snapshot replayed with this block's txs
        // (invalid txs simply don't transfer in the *verified* replay —
        // the root chain can't see them until someone proves fraud).
        let mut snapshot = self.snapshots.last().expect("exists").clone();
        for tx in &txs {
            let from_balance = snapshot.get(&tx.from).copied().unwrap_or(0);
            if from_balance >= tx.amount {
                *snapshot.entry(tx.from).or_insert(0) -= tx.amount;
                *snapshot.entry(tx.to).or_insert(0) += tx.amount;
            }
        }
        self.snapshots.push(snapshot);
        self.blocks.push(txs);
        self.commitments.push(commitment);
        self.root_chain_txs += 1;
        Ok(commitment)
    }

    /// Builds the fraud proof for transaction `tx_index` of committed
    /// block `child_height` — any stakeholder holding the block data
    /// can do this.
    pub fn build_fraud_proof(
        &self,
        child_height: u64,
        tx_index: usize,
    ) -> Option<(ChildTx, MerkleProof)> {
        let txs = self.blocks.get(child_height as usize)?;
        let tx = *txs.get(tx_index)?;
        let leaves: Vec<Digest> = txs.iter().map(ChildTx::id).collect();
        let proof = MerkleTree::from_leaves(leaves).prove(tx_index)?;
        Some((tx, proof))
    }

    /// The root-chain contract checks a fraud proof: the transaction
    /// must be committed under the block's root **and** be invalid
    /// against the pre-block verified state. Proven fraud slashes the
    /// operator's bond to the challenger and halts the chain.
    ///
    /// Returns the slashed amount.
    pub fn prove_fraud(
        &mut self,
        child_height: u64,
        tx: ChildTx,
        proof: &MerkleProof,
    ) -> Result<u64, PlasmaError> {
        let commitment = self
            .commitments
            .get(child_height as usize)
            .ok_or(PlasmaError::UnknownCommitment)?;
        if !proof.verify(&commitment.root, &tx.id()) {
            return Err(PlasmaError::BadProof);
        }
        // Replay the committed block prefix over the pre-block snapshot
        // to find the sender's balance at the tx's position.
        let mut state = self.snapshots[child_height as usize].clone();
        let block = &self.blocks[child_height as usize];
        for (i, prior) in block.iter().enumerate() {
            if i == proof.index {
                break;
            }
            let from_balance = state.get(&prior.from).copied().unwrap_or(0);
            if from_balance >= prior.amount {
                *state.entry(prior.from).or_insert(0) -= prior.amount;
                *state.entry(prior.to).or_insert(0) += prior.amount;
            }
        }
        let sender_balance = state.get(&tx.from).copied().unwrap_or(0);
        if sender_balance >= tx.amount {
            return Err(PlasmaError::NotFraud);
        }
        self.root_chain_txs += 1;
        self.halted = true;
        let slashed = self.operator_bond;
        self.operator_bond = 0;
        Ok(slashed)
    }

    /// Exits an account to the root chain with its balance from the
    /// last *verified* snapshot (one root-chain transaction). On a
    /// halted chain this is the recovery path.
    pub fn exit(&mut self, account: Address) -> Result<u64, PlasmaError> {
        let snapshot = self.snapshots.last_mut().expect("exists");
        let balance = snapshot.remove(&account).unwrap_or(0);
        if balance == 0 {
            return Err(PlasmaError::NothingToExit);
        }
        self.balances.remove(&account);
        self.root_chain_txs += 1;
        Ok(balance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user(label: &str) -> Address {
        Address::from_label(label)
    }

    #[test]
    fn deposits_transfers_and_commitments() {
        let mut plasma = PlasmaChain::new(1_000);
        plasma.deposit(user("alice"), 500).unwrap();
        plasma.deposit(user("bob"), 100).unwrap();
        for _ in 0..50 {
            plasma.submit(user("alice"), user("bob"), 2).unwrap();
        }
        let commitment = plasma.commit_block().unwrap();
        assert_eq!(commitment.child_height, 0);
        assert_eq!(plasma.balance(&user("alice")), 400);
        assert_eq!(plasma.balance(&user("bob")), 200);
        // 50 transfers cost exactly one root-chain commitment.
        // root txs: deploy + 2 deposits + 1 commitment.
        assert_eq!(plasma.root_chain_txs, 4);
    }

    #[test]
    fn scaling_ratio_grows_with_block_size() {
        let mut plasma = PlasmaChain::new(1_000);
        plasma.deposit(user("a"), 100_000).unwrap();
        let mut child_txs = 0u64;
        for _ in 0..10 {
            for _ in 0..200 {
                plasma.submit(user("a"), user("b"), 1).unwrap();
                child_txs += 1;
            }
            plasma.commit_block().unwrap();
        }
        // 2000 child transfers, 10 commitments (+deploy+deposit).
        assert_eq!(child_txs, 2_000);
        assert_eq!(plasma.root_chain_txs, 1 + 1 + 10);
        assert!(child_txs / plasma.root_chain_txs >= 150);
    }

    #[test]
    fn overspend_rejected_by_honest_operator() {
        let mut plasma = PlasmaChain::new(1_000);
        plasma.deposit(user("a"), 10).unwrap();
        assert_eq!(
            plasma.submit(user("a"), user("b"), 11),
            Err(PlasmaError::InsufficientBalance)
        );
    }

    #[test]
    fn fraud_proof_slashes_byzantine_operator() {
        let mut plasma = PlasmaChain::new(5_000);
        plasma.deposit(user("victim"), 100).unwrap();
        // The operator invents a transfer spending money the attacker
        // never had.
        let forged = ChildTx {
            from: user("nobody"),
            to: user("operator-friend"),
            amount: 1_000_000,
            tag: 999,
        };
        let honest = ChildTx {
            from: user("victim"),
            to: user("shop"),
            amount: 50,
            tag: 1,
        };
        plasma.commit_block_byzantine(vec![honest, forged]).unwrap();

        // Any stakeholder with the block data proves the fraud.
        let (tx, proof) = plasma.build_fraud_proof(0, 1).unwrap();
        assert_eq!(tx, forged);
        let slashed = plasma.prove_fraud(0, tx, &proof).unwrap();
        assert_eq!(slashed, 5_000);
        assert!(plasma.is_halted());
        assert_eq!(plasma.operator_bond(), 0);

        // Users exit with verified balances: the honest tx executed
        // (victim 100 -> 50 + shop 50); the forged one never could.
        assert_eq!(plasma.exit(user("victim")).unwrap(), 50);
        assert_eq!(plasma.exit(user("shop")).unwrap(), 50);
        assert_eq!(
            plasma.exit(user("operator-friend")),
            Err(PlasmaError::NothingToExit)
        );
        // Halted chain accepts nothing new.
        assert_eq!(plasma.deposit(user("x"), 1), Err(PlasmaError::Halted));
    }

    #[test]
    fn valid_tx_is_not_fraud() {
        let mut plasma = PlasmaChain::new(1_000);
        plasma.deposit(user("a"), 100).unwrap();
        plasma.submit(user("a"), user("b"), 10).unwrap();
        plasma.commit_block().unwrap();
        let (tx, proof) = plasma.build_fraud_proof(0, 0).unwrap();
        assert_eq!(
            plasma.prove_fraud(0, tx, &proof),
            Err(PlasmaError::NotFraud)
        );
        assert!(!plasma.is_halted());
        assert_eq!(plasma.operator_bond(), 1_000);
    }

    #[test]
    fn mismatched_proof_rejected() {
        let mut plasma = PlasmaChain::new(1_000);
        plasma.deposit(user("a"), 100).unwrap();
        plasma.submit(user("a"), user("b"), 10).unwrap();
        plasma.commit_block().unwrap();
        let (_, proof) = plasma.build_fraud_proof(0, 0).unwrap();
        // Claim a different tx under the same proof.
        let fake = ChildTx {
            from: user("nobody"),
            to: user("b"),
            amount: 1,
            tag: 7,
        };
        assert_eq!(
            plasma.prove_fraud(0, fake, &proof),
            Err(PlasmaError::BadProof)
        );
    }

    #[test]
    fn exit_mid_operation() {
        let mut plasma = PlasmaChain::new(1_000);
        plasma.deposit(user("a"), 100).unwrap();
        plasma.submit(user("a"), user("b"), 40).unwrap();
        plasma.commit_block().unwrap();
        // Exits use the verified snapshot after the committed block.
        assert_eq!(plasma.exit(user("b")).unwrap(), 40);
        assert_eq!(plasma.exit(user("a")).unwrap(), 60);
    }
}
