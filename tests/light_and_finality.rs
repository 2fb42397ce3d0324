//! Integration: the §V node-role spectrum end to end — an archival
//! chain, an SPV light client following it, and the PoS finality layer
//! giving the light client a reorg-proof anchor.

use dlt_blockchain::account::AccountHolder;
use dlt_blockchain::bitcoin::{BitcoinChain, BitcoinParams};
use dlt_blockchain::block::LedgerTx;
use dlt_blockchain::ethereum::EthereumParams;
use dlt_blockchain::pos_chain::{PosChain, PosParams};
use dlt_blockchain::spv::SpvClient;
use dlt_crypto::keys::Address;
use dlt_crypto::merkle::MerkleTree;
use dlt_crypto::Digest;
use dlt_dag::prune::{ledger_size, NodeRole};

#[test]
fn spv_client_tracks_archival_node_and_verifies_payments() {
    let mut wallet = dlt_blockchain::utxo::Wallet::new(1);
    let allocations: Vec<(Address, u64)> = (0..10).map(|_| (wallet.new_address(), 5_000)).collect();
    let mut chain = BitcoinChain::new(BitcoinParams::default(), &allocations);
    let genesis_header = chain
        .chain()
        .header(&chain.chain().genesis())
        .unwrap()
        .clone();
    let mut spv = SpvClient::new(genesis_header, false);

    // Ten blocks with a payment each; the light client follows headers.
    let mut paid_tx: Option<(u64, Digest)> = None;
    for height in 1..=10u64 {
        if let Some(tx) = wallet.build_transfer(chain.ledger(), Address::from_label("shop"), 100, 1)
        {
            if height == 4 {
                paid_tx = Some((height, tx.id()));
            }
            chain.submit_tx(tx);
        }
        chain.mine_block(Address::from_label("miner"), height * 600_000_000);
        let tip = chain.chain().tip();
        spv.accept_header(chain.chain().header(&tip).unwrap().clone())
            .expect("headers link");
    }
    assert_eq!(spv.tip_height(), 10);

    // The archival node serves a Merkle proof for the block-4 payment;
    // the light client verifies inclusion + confirmation count without
    // ever holding a block body.
    let (height, tx_id) = paid_tx.expect("payment in block 4");
    let block_id = chain.chain().active_at(height).unwrap();
    let block = chain.chain().block(&block_id).unwrap();
    let leaves: Vec<Digest> = block.txs.iter().map(LedgerTx::id).collect();
    let index = leaves.iter().position(|l| *l == tx_id).unwrap();
    let proof = MerkleTree::from_leaves(leaves).prove(index).unwrap();
    let confirmations = spv.verify_inclusion(height, &tx_id, &proof).unwrap();
    assert_eq!(confirmations, 7); // blocks 4..=10

    // The three storage classes of §V, in one picture: archival ≫
    // light. (The DAG side's current/light roles are measured in e08.)
    let archival_bytes = chain.chain().total_bytes() + chain.ledger().size_bytes();
    assert!(
        spv.storage_bytes() * 10 < archival_bytes,
        "light {} vs archival {}",
        spv.storage_bytes(),
        archival_bytes
    );
}

#[test]
fn pos_finality_gives_light_clients_irreversible_anchors() {
    // A PoS chain with epoch length 4 finalizes height 4 once height 8
    // is justified; an application polling `finalized_height` never
    // needs §IV-A's probabilistic depth rule below that line.
    let mut alice = AccountHolder::from_seed([7u8; 32], 8);
    let validators: Vec<(Address, u64)> = (0..3)
        .map(|i| (Address::from_label(&format!("v{i}")), 100))
        .collect();
    let mut chain = PosChain::new(
        EthereumParams::default(),
        PosParams {
            slot_micros: 4_000_000,
            epoch_length: 4,
        },
        &[(alice.address(), 1_000_000)],
        &validators,
    );
    let mut paid_at = 0u64;
    for slot in 1..=12u64 {
        if slot == 2 {
            chain.submit_tx(alice.transfer(Address::from_label("shop"), 100, 1));
            paid_at = slot;
        }
        chain.advance_slot(slot).unwrap();
    }
    assert!(chain.finalized_height() >= 8);
    assert!(paid_at < chain.finalized_height());
    // The payment's block is below the finality line: irreversible by
    // construction, not merely improbable to revert.
    assert!(chain
        .chain()
        .chain()
        .is_active(&chain.block_at(paid_at).unwrap()));
    assert_eq!(chain.chain().balance(&Address::from_label("shop")), 100);
}

#[test]
fn node_role_spectrum_is_ordered() {
    // light < current < historical on the DAG side, mirroring
    // SPV < pruned < archival on the blockchain side.
    let params = dlt_dag::lattice::LatticeParams {
        work_difficulty_bits: 2,
        ..Default::default()
    };
    let mut genesis = dlt_dag::account::NanoAccount::from_seed([9u8; 32], 9, 2);
    let mut lattice = dlt_dag::lattice::Lattice::new(params, genesis.genesis_block(1_000_000));
    let mut bob = dlt_dag::account::NanoAccount::from_seed([10u8; 32], 9, 2);
    for amount in [1_000u64, 10, 10, 10, 10] {
        let send = genesis.send(bob.address(), amount).unwrap();
        let hash = lattice.process(send).unwrap();
        lattice.process(bob.receive(hash, amount).unwrap()).unwrap();
    }
    let light = ledger_size(&lattice, NodeRole::Light);
    let current = ledger_size(&lattice, NodeRole::Current);
    let historical = ledger_size(&lattice, NodeRole::Historical);
    assert!(light < current && current < historical);
    assert_eq!(light, 0);
}
