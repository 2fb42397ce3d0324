//! Integration: the unified-workload comparison invariants.
//!
//! Whatever the paradigm, the same workload must conserve value, never
//! confirm a transfer twice, and report internally consistent stats.

use dlt_blockchain::bitcoin::BitcoinParams;
use dlt_blockchain::ethereum::EthereumParams;
use dlt_core::ledger::{
    run_workload, BitcoinAdapter, DistributedLedger, EthereumAdapter, NanoAdapter, TxStatus,
    WorkloadConfig,
};
use dlt_dag::lattice::LatticeParams;
use dlt_sim::time::SimTime;

fn config() -> WorkloadConfig {
    WorkloadConfig {
        offered_tps: 2.0,
        duration: SimTime::from_secs(60),
        drain: SimTime::from_secs(90),
        amount: 3,
        seed: 11,
    }
}

fn bitcoin() -> BitcoinAdapter {
    BitcoinAdapter::new(
        BitcoinParams {
            confirmation_depth: 3,
            ..BitcoinParams::default()
        },
        SimTime::from_secs(10),
        5,
        50,
        10_000,
        3,
    )
}

fn ethereum() -> EthereumAdapter {
    EthereumAdapter::new(
        EthereumParams {
            confirmation_depth: 3,
            ..EthereumParams::default()
        },
        SimTime::from_secs(1),
        5,
        50_000_000,
        9,
        3,
    )
}

fn nano() -> NanoAdapter {
    NanoAdapter::new(
        LatticeParams {
            work_difficulty_bits: 2,
            ..Default::default()
        },
        5,
        50_000_000,
        9,
        SimTime::from_millis(150),
        SimTime::from_millis(250),
        3,
    )
}

#[test]
fn reports_are_internally_consistent_everywhere() {
    let cfg = config();
    let mut bitcoin = bitcoin();
    let mut ethereum = ethereum();
    let mut nano = nano();
    let ledgers: Vec<&mut dyn DistributedLedger> = vec![&mut bitcoin, &mut ethereum, &mut nano];
    for ledger in ledgers {
        let name = ledger.name();
        let report = run_workload(ledger, &cfg);
        assert!(report.submitted <= report.offered, "{name}: {report:?}");
        assert!(report.confirmed <= report.submitted, "{name}: {report:?}");
        assert!(report.confirmed > 0, "{name}: nothing confirmed");
        assert!(report.ledger_bytes > 0, "{name}");
        assert!(report.bytes_per_tx > 0.0, "{name}");
        assert!(report.blocks > 0, "{name}");
    }
}

#[test]
fn bitcoin_value_conservation_under_workload() {
    let cfg = config();
    let mut ledger = bitcoin();
    run_workload(&mut ledger, &cfg);
    // Supply = genesis allocations + mined subsidies (fees recirculate).
    let genesis_funds = 5 * 50 * 10_000u64;
    let blocks_mined = ledger.chain().chain().tip_height();
    let expected = genesis_funds + blocks_mined * ledger.chain().params().subsidy;
    assert_eq!(ledger.chain().ledger().total_value(), expected);
}

#[test]
fn nano_supply_conserved_and_settles_fully() {
    let cfg = config();
    let mut ledger = nano();
    let report = run_workload(&mut ledger, &cfg);
    assert_eq!(
        ledger.lattice().circulating_total(),
        ledger.lattice().total_supply()
    );
    // After the drain every accepted transfer has settled.
    assert_eq!(report.backlog, 0);
    assert_eq!(ledger.lattice().pending_count(), 0);
}

#[test]
fn tickets_never_regress_from_confirmed() {
    let mut ledger = ethereum();
    let ticket = ledger.submit_transfer(0, 1, 5).expect("funded");
    let mut reached_confirmed = false;
    for _ in 0..40 {
        ledger.advance(SimTime::from_secs(1));
        let status = ledger.status(&ticket);
        if reached_confirmed {
            assert_eq!(status, TxStatus::Confirmed, "confirmation is sticky");
        }
        if status == TxStatus::Confirmed {
            reached_confirmed = true;
        }
    }
    assert!(reached_confirmed);
}

#[test]
fn ethereum_balances_match_transfer_ledger() {
    // Drive a known sequence and check the state agrees exactly.
    let mut ledger = ethereum();
    let tickets: Vec<_> = (0..5)
        .filter_map(|i| ledger.submit_transfer(0, 1 + (i % 2), 10))
        .collect();
    assert_eq!(tickets.len(), 5);
    for _ in 0..10 {
        ledger.advance(SimTime::from_secs(1));
    }
    for ticket in &tickets {
        assert!(matches!(
            ledger.status(ticket),
            TxStatus::Confirmed | TxStatus::Included { .. }
        ));
    }
    let stats = ledger.stats();
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.pending, 0);
}
