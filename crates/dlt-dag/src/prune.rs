//! Node roles and DAG ledger-size accounting (paper §V-B).
//!
//! "Nano distinguishes between three types of nodes: *historical* which
//! keep record of all transactions, *current* which keep only the head
//! of account-chains, and *light* that do not hold any ledger data."
//!
//! Because account chains record balances rather than unspent inputs,
//! "all other historical data can be discarded to decrease ledger
//! size" — a current node needs only each account's head block (plus
//! the pending map) to validate everything that comes next.

use dlt_crypto::codec::Encode;

use crate::lattice::Lattice;

/// The §V-B node role taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Keeps every block since genesis.
    Historical,
    /// Keeps only account heads, summaries and the pending map.
    Current,
    /// Keeps no ledger data; observes or creates transactions only.
    Light,
}

/// Per-account bookkeeping overhead a current node stores besides the
/// head block: address, head/open hashes, balance, count,
/// representative.
const ACCOUNT_INFO_BYTES: usize = 32 + 32 + 32 + 8 + 8 + 32;

/// Bytes per pending-map entry: send hash, destination, amount.
const PENDING_ENTRY_BYTES: usize = 32 + 32 + 8;

/// Ledger bytes a node of the given role must store.
pub fn ledger_size(lattice: &Lattice, role: NodeRole) -> usize {
    match role {
        NodeRole::Historical => {
            lattice.total_bytes() + lattice.pending_count() * PENDING_ENTRY_BYTES
        }
        NodeRole::Current => {
            let heads: usize = lattice
                .accounts_iter()
                .iter()
                .map(|(_, info)| {
                    let head_block = lattice
                        .block(&info.head)
                        .expect("heads are stored")
                        .encoded_len();
                    head_block + ACCOUNT_INFO_BYTES
                })
                .sum();
            heads + lattice.pending_count() * PENDING_ENTRY_BYTES
        }
        NodeRole::Light => 0,
    }
}

/// A size comparison across the three roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagStorageReport {
    /// Total blocks in the ledger.
    pub blocks: usize,
    /// Open accounts.
    pub accounts: usize,
    /// Bytes a historical node stores.
    pub historical_bytes: usize,
    /// Bytes a current node stores.
    pub current_bytes: usize,
}

impl DagStorageReport {
    /// Measures a ledger.
    pub fn measure(lattice: &Lattice) -> Self {
        DagStorageReport {
            blocks: lattice.block_count(),
            accounts: lattice.account_count(),
            historical_bytes: ledger_size(lattice, NodeRole::Historical),
            current_bytes: ledger_size(lattice, NodeRole::Current),
        }
    }

    /// Fraction of the historical size a current node saves.
    pub fn pruning_savings(&self) -> f64 {
        if self.historical_bytes == 0 {
            return 0.0;
        }
        1.0 - self.current_bytes as f64 / self.historical_bytes as f64
    }
}

impl std::fmt::Display for DagStorageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "blocks={} accounts={} historical={}B current={}B savings={:.1}%",
            self.blocks,
            self.accounts,
            self.historical_bytes,
            self.current_bytes,
            self.pruning_savings() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::NanoAccount;
    use crate::lattice::LatticeParams;
    use dlt_crypto::keys::Address;

    fn busy_lattice(traffic_rounds: usize) -> Lattice {
        let params = LatticeParams {
            work_difficulty_bits: 2,
            ..Default::default()
        };
        let mut genesis = NanoAccount::from_seed([1u8; 32], 8, 2);
        let mut lattice = Lattice::new(params, genesis.genesis_block(1_000_000));
        let mut bob = NanoAccount::from_seed([2u8; 32], 8, 2);
        // Open bob.
        let send = genesis.send(bob.address(), 10_000).unwrap();
        let hash = lattice.process(send).unwrap();
        lattice.process(bob.receive(hash, 10_000).unwrap()).unwrap();
        // Traffic: genesis -> bob repeatedly.
        for _ in 0..traffic_rounds {
            let send = genesis.send(bob.address(), 10).unwrap();
            let hash = lattice.process(send).unwrap();
            lattice.process(bob.receive(hash, 10).unwrap()).unwrap();
        }
        lattice
    }

    #[test]
    fn light_stores_nothing() {
        let lattice = busy_lattice(5);
        assert_eq!(ledger_size(&lattice, NodeRole::Light), 0);
    }

    #[test]
    fn current_is_much_smaller_than_historical() {
        let lattice = busy_lattice(20);
        let report = DagStorageReport::measure(&lattice);
        assert!(report.current_bytes < report.historical_bytes / 5);
        assert!(report.pruning_savings() > 0.8);
        assert_eq!(report.accounts, 2);
        assert_eq!(report.blocks, 1 + 2 + 40);
    }

    #[test]
    fn historical_grows_with_traffic_current_does_not() {
        let small = DagStorageReport::measure(&busy_lattice(5));
        let large = DagStorageReport::measure(&busy_lattice(50));
        assert!(large.historical_bytes > small.historical_bytes * 3);
        // Current size is per-account, not per-transaction.
        let ratio = large.current_bytes as f64 / small.current_bytes as f64;
        assert!(ratio < 1.5, "current size nearly flat (ratio {ratio})");
    }

    #[test]
    fn pending_entries_count_for_both_roles() {
        let params = LatticeParams {
            work_difficulty_bits: 2,
            ..Default::default()
        };
        let mut genesis = NanoAccount::from_seed([3u8; 32], 6, 2);
        let mut lattice = Lattice::new(params, genesis.genesis_block(1_000));
        let before = ledger_size(&lattice, NodeRole::Current);
        // An unreceived send adds a pending entry.
        let send = genesis.send(Address::from_label("offline"), 10).unwrap();
        lattice.process(send).unwrap();
        let after = ledger_size(&lattice, NodeRole::Current);
        assert!(after > before);
    }

    #[test]
    fn display_report() {
        let report = DagStorageReport::measure(&busy_lattice(3));
        assert!(report.to_string().contains("savings="));
    }
}
