//! e03 — Send/receive settlement (paper §II-B, Fig. 3).
//!
//! Drives transfers through their unsettled → settled lifecycle,
//! including the offline-receiver case the paper calls out ("a node has
//! to be online in order to receive a transaction").

use dlt_bench::{banner, Table};
use dlt_dag::account::NanoAccount;
use dlt_dag::lattice::{Lattice, LatticeParams};

fn main() {
    let _report = banner(
        "e03",
        "transaction settlement in the block lattice",
        "§II-B, Fig. 3",
    );
    let params = LatticeParams {
        work_difficulty_bits: 4,
        ..Default::default()
    };
    let mut genesis = NanoAccount::from_seed([1u8; 32], 6, 4);
    let mut lattice = Lattice::new(params, genesis.genesis_block(1_000));
    let mut online = NanoAccount::from_seed([2u8; 32], 6, 4);
    let offline = NanoAccount::from_seed([3u8; 32], 6, 4);

    let mut table = Table::new([
        "step",
        "event",
        "sender bal",
        "recipient bal",
        "pending",
        "settled?",
    ]);

    // S: send to the online recipient.
    let send1 = genesis.send(online.address(), 300).expect("funded");
    let send1_hash = lattice.process(send1).expect("valid");
    table.row([
        "1".into(),
        format!("S: genesis → online (300), send {}", send1_hash.short()),
        lattice.balance(&genesis.address()).to_string(),
        lattice.balance(&online.address()).to_string(),
        lattice.pending_count().to_string(),
        lattice.is_settled(&send1_hash).to_string(),
    ]);

    // R: the online recipient claims it.
    let receive1 = online.receive(send1_hash, 300).expect("key ok");
    lattice.process(receive1).expect("valid");
    table.row([
        "2".into(),
        "R: online receives 300".into(),
        lattice.balance(&genesis.address()).to_string(),
        lattice.balance(&online.address()).to_string(),
        lattice.pending_count().to_string(),
        lattice.is_settled(&send1_hash).to_string(),
    ]);

    // S: send to the offline recipient — stays unsettled forever.
    let send2 = genesis.send(offline.address(), 100).expect("funded");
    let send2_hash = lattice.process(send2).expect("valid");
    table.row([
        "3".into(),
        format!("S: genesis → OFFLINE (100), send {}", send2_hash.short()),
        lattice.balance(&genesis.address()).to_string(),
        lattice.balance(&offline.address()).to_string(),
        lattice.pending_count().to_string(),
        lattice.is_settled(&send2_hash).to_string(),
    ]);
    table.print();

    println!(
        "\nfunds for the offline account sit in the pending map: {:?}",
        lattice.pending_for(&offline.address())
    );
    println!(
        "sender debited immediately; recipient credited only on receive — \
         supply conserved throughout: {}",
        lattice.circulating_total() == lattice.total_supply()
    );
    assert!(lattice.is_settled(&send1_hash));
    assert!(!lattice.is_settled(&send2_hash));
    assert_eq!(lattice.circulating_total(), lattice.total_supply());
}
