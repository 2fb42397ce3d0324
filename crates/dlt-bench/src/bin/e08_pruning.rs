//! e08 — Pruning (paper §V-A, §V-B).
//!
//! Measures what each retention policy actually stores:
//! Bitcoin's prune mode, Ethereum's state-delta pruning and fast sync,
//! and Nano's historical/current/light node roles.

use dlt_bench::{banner, human_bytes, Table};
use dlt_blockchain::account::AccountHolder;
use dlt_blockchain::bitcoin::{BitcoinChain, BitcoinParams};
use dlt_blockchain::ethereum::{EthereumChain, EthereumParams};
use dlt_blockchain::prune::{bitcoin_archival_size, bitcoin_pruned_size, ethereum_archival_size};
use dlt_blockchain::utxo::Wallet;
use dlt_crypto::keys::Address;
use dlt_dag::account::NanoAccount;
use dlt_dag::lattice::{Lattice, LatticeParams};
use dlt_dag::prune::{ledger_size, DagStorageReport, NodeRole};

fn main() {
    let _report = banner("e08", "ledger pruning", "§V-A, §V-B");

    // --- Bitcoin prune mode. ---
    let blocks = 60u64;
    let mut wallet = Wallet::new(1);
    let allocations: Vec<(Address, u64)> = (0..blocks)
        .map(|_| (wallet.new_address(), 10_000))
        .collect();
    let mut btc = BitcoinChain::new(BitcoinParams::default(), &allocations);
    for i in 1..=blocks {
        if let Some(tx) = wallet.build_transfer(btc.ledger(), Address::from_label("shop"), 100, 1) {
            btc.submit_tx(tx);
        }
        btc.mine_block(Address::from_label("miner"), i * 600_000_000);
    }
    println!("\nbitcoin-like, {blocks} blocks of one payment each:");
    let mut table = Table::new([
        "policy", "headers", "bodies", "undo", "UTXO set", "total", "saved",
    ]);
    let archival = bitcoin_archival_size(&btc);
    for (label, breakdown) in [
        ("archival", archival),
        ("pruned (keep 12)", bitcoin_pruned_size(&btc, 12)),
        ("pruned (keep 3)", bitcoin_pruned_size(&btc, 3)),
    ] {
        table.row([
            label.to_string(),
            human_bytes(breakdown.headers_bytes as f64),
            human_bytes(breakdown.bodies_bytes as f64),
            human_bytes(breakdown.undo_bytes as f64),
            human_bytes(breakdown.state_bytes as f64),
            human_bytes(breakdown.total() as f64),
            format!(
                "{:.0}%",
                100.0 * (1.0 - breakdown.total() as f64 / archival.total() as f64)
            ),
        ]);
    }
    table.print();
    println!(
        "downside per §V-A: a pruned node can no longer serve historical \
         blocks to syncing peers."
    );

    // --- Ethereum: state-delta pruning and fast sync. ---
    let mut alice = AccountHolder::from_seed([2u8; 32], 9);
    let mut eth = EthereumChain::new(
        EthereumParams::default(),
        &[(alice.address(), u64::MAX / 4)],
    );
    for i in 0..120u64 {
        eth.submit_tx(alice.transfer(Address::from_label("bob"), 10, 1));
        eth.submit_tx(alice.transfer(Address::from_label("carol"), 10, 1));
        eth.produce_block(Address::from_label("validator"), i * 15_000_000);
    }
    println!("\nethereum-like, 120 blocks × 2 txs:");
    let full = ethereum_archival_size(&eth);
    println!(
        "archival node: {} (blocks {} + receipts {} + all state versions {})",
        human_bytes(full.total() as f64),
        human_bytes((full.headers_bytes + full.bodies_bytes) as f64),
        human_bytes(full.receipts_bytes as f64),
        human_bytes(full.state_bytes as f64),
    );
    let (synced, sync_bytes) = eth.fast_sync(32).expect("sync");
    println!(
        "fast sync (pivot = head−32): downloads {} — {} blocks from the pivot plus \
         the pivot state closure; historical replay skipped entirely",
        human_bytes(sync_bytes as f64),
        synced.blocks.len(),
    );
    let collected = eth.prune_state_deltas(32);
    let pruned = ethereum_archival_size(&eth);
    println!(
        "state-delta pruning (keep 32 roots): collected {collected} trie nodes, \
         state shrinks {} → {}",
        human_bytes(full.state_bytes as f64),
        human_bytes(pruned.state_bytes as f64),
    );

    // --- Nano node roles. ---
    let params = LatticeParams {
        work_difficulty_bits: 2,
        ..Default::default()
    };
    let mut genesis = NanoAccount::from_seed([3u8; 32], 10, 2);
    let mut lattice = Lattice::new(params, genesis.genesis_block(100_000_000));
    let mut accounts: Vec<NanoAccount> = (0..10)
        .map(|i| NanoAccount::from_seed([50 + i as u8; 32], 9, 2))
        .collect();
    for account in accounts.iter_mut() {
        let send = genesis.send(account.address(), 1_000_000).unwrap();
        let hash = lattice.process(send).unwrap();
        lattice
            .process(account.receive(hash, 1_000_000).unwrap())
            .unwrap();
    }
    for round in 0..20 {
        for i in 0..accounts.len() {
            let j = (i + 1 + round) % accounts.len();
            let to = accounts[j].address();
            let send = accounts[i].send(to, 100).unwrap();
            let hash = lattice.process(send).unwrap();
            let receive = accounts[j].receive(hash, 100).unwrap();
            lattice.process(receive).unwrap();
        }
    }
    println!(
        "\nnano-like, {} blocks across {} accounts:",
        lattice.block_count(),
        lattice.account_count()
    );
    let mut table = Table::new(["node role", "stores", "bytes"]);
    table.row([
        "historical".to_string(),
        "every block since genesis".to_string(),
        human_bytes(ledger_size(&lattice, NodeRole::Historical) as f64),
    ]);
    table.row([
        "current".to_string(),
        "account heads + balances + pending".to_string(),
        human_bytes(ledger_size(&lattice, NodeRole::Current) as f64),
    ]);
    table.row([
        "light".to_string(),
        "nothing (observes/creates only)".to_string(),
        human_bytes(ledger_size(&lattice, NodeRole::Light) as f64),
    ]);
    table.print();
    let report = DagStorageReport::measure(&lattice);
    println!(
        "current-node savings: {:.1}% — possible because \"accounts keep record of \
         account balances instead of unspent transaction inputs\" (§V-B)",
        report.pruning_savings() * 100.0
    );
}
