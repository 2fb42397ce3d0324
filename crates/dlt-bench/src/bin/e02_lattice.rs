//! e02 — The block-lattice (paper §II-B, Fig. 2).
//!
//! Builds a lattice over several accounts, prints each account chain
//! and the cross-links between them (a send on one chain referenced by
//! a receive on another) — the structure of Fig. 2.

use dlt_bench::{banner, Table};
use dlt_dag::account::NanoAccount;
use dlt_dag::block::BlockKind;
use dlt_dag::lattice::{Lattice, LatticeParams};

fn main() {
    let _report = banner("e02", "the block-lattice", "§II-B, Fig. 2");
    let params = LatticeParams {
        work_difficulty_bits: 4,
        ..Default::default()
    };
    let mut genesis = NanoAccount::from_seed([1u8; 32], 6, 4);
    let mut lattice = Lattice::new(params, genesis.genesis_block(1_000_000));
    let mut alice = NanoAccount::from_seed([2u8; 32], 6, 4);
    let mut bob = NanoAccount::from_seed([3u8; 32], 6, 4);

    // Fund alice and bob; then alice pays bob twice; bob pays alice.
    for (account, amount) in [(&mut alice, 10_000u64), (&mut bob, 5_000)] {
        let send = genesis.send(account.address(), amount).expect("funded");
        let hash = lattice.process(send).expect("valid");
        let receive = account.receive(hash, amount).expect("fresh key");
        lattice.process(receive).expect("valid");
    }
    for amount in [100u64, 200] {
        let send = alice.send(bob.address(), amount).expect("funded");
        let hash = lattice.process(send).expect("valid");
        let receive = bob.receive(hash, amount).expect("key ok");
        lattice.process(receive).expect("valid");
    }
    let send = bob.send(alice.address(), 50).expect("funded");
    let hash = lattice.process(send).expect("valid");
    let receive = alice.receive(hash, 50).expect("key ok");
    lattice.process(receive).expect("valid");

    // Print every account chain (the vertical chains of Fig. 2).
    for (address, info) in lattice.accounts_iter() {
        let label = if address == genesis.address() {
            "genesis"
        } else if address == alice.address() {
            "alice"
        } else {
            "bob"
        };
        println!("\naccount-chain of {label} ({address}):");
        let mut table = Table::new(["#", "block", "kind", "balance after", "cross-link"]);
        for (i, block) in lattice.chain_of(&address).iter().enumerate() {
            let (kind, link) = match block.kind {
                BlockKind::Send { destination } => ("send", format!("→ {destination}")),
                BlockKind::Receive { source } if source.is_zero() => {
                    ("open (mint)", "-".to_string())
                }
                BlockKind::Receive { source } => ("receive", format!("← send {}", source.short())),
                BlockKind::Change => ("change", "-".to_string()),
            };
            table.row([
                i.to_string(),
                block.hash().short(),
                kind.to_string(),
                block.balance.to_string(),
                link,
            ]);
        }
        table.print();
        println!(
            "  head: {}  blocks: {}  balance: {}",
            info.head.short(),
            info.block_count,
            info.balance
        );
    }

    println!(
        "\nlattice totals: {} blocks across {} account chains, {} pending, supply conserved: {}",
        lattice.block_count(),
        lattice.account_count(),
        lattice.pending_count(),
        lattice.circulating_total() == lattice.total_supply()
    );
    assert_eq!(lattice.circulating_total(), lattice.total_supply());
}
