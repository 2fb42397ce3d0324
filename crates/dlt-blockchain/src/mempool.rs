//! The mempool: transactions waiting for block inclusion.
//!
//! The paper's scalability discussion (§VI) is anchored in pending
//! backlogs — "186,951 pending transactions in the Bitcoin network" —
//! which is precisely the mempool's occupancy under a saturating
//! workload. Block producers take the highest fee-*rate* (fee per
//! weight unit) transactions first, which is how both Bitcoin (fee per
//! byte) and Ethereum (gas price) prioritise.
//!
//! Orphaned transactions from reverted blocks are
//! [reinstated](Mempool::reinstate) — the paper: "orphaned transactions
//! need to be included in a new block".

use std::collections::BTreeMap;

use dlt_crypto::Digest;

use crate::block::LedgerTx;

/// A fee-rate-prioritised set of pending transactions.
#[derive(Debug, Clone)]
pub struct Mempool<T> {
    txs: BTreeMap<Digest, T>,
    capacity: usize,
}

impl<T: LedgerTx> Mempool<T> {
    /// Creates a mempool bounded to `capacity` transactions. When full,
    /// a new transaction only enters by evicting a lower fee-rate one.
    pub fn new(capacity: usize) -> Self {
        Mempool {
            txs: BTreeMap::new(),
            capacity,
        }
    }

    /// Number of pending transactions — the "pending backlog" the
    /// scalability experiment reports.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Whether a transaction id is pending.
    pub fn contains(&self, id: &Digest) -> bool {
        self.txs.contains_key(id)
    }

    /// Total weight (bytes or gas) of all pending transactions.
    pub fn total_weight(&self) -> u64 {
        self.txs.values().map(LedgerTx::weight).sum()
    }

    /// Fee rate of a transaction: fee per weight unit.
    fn fee_rate(tx: &T) -> f64 {
        tx.fee() as f64 / tx.weight().max(1) as f64
    }

    /// Offers a transaction to the pool.
    ///
    /// Returns `true` if it was admitted. Duplicates are ignored; when
    /// the pool is full the lowest-fee-rate resident is evicted if the
    /// newcomer pays a strictly higher rate, otherwise the newcomer is
    /// refused (real mempool behaviour under backlog).
    pub fn insert(&mut self, tx: T) -> bool {
        let id = tx.id();
        if self.txs.contains_key(&id) {
            return false;
        }
        if self.txs.len() >= self.capacity {
            let Some((victim_id, victim_rate)) = self
                .txs
                .iter()
                .map(|(id, t)| (*id, Self::fee_rate(t)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
            else {
                return false;
            };
            if Self::fee_rate(&tx) <= victim_rate {
                return false;
            }
            self.txs.remove(&victim_id);
        }
        self.txs.insert(id, tx);
        true
    }

    /// Removes transactions that were confirmed in a block.
    pub fn remove_confirmed(&mut self, ids: impl IntoIterator<Item = Digest>) {
        for id in ids {
            self.txs.remove(&id);
        }
    }

    /// Puts transactions from reverted (orphaned) blocks back into the
    /// pool so a later block can re-include them.
    pub fn reinstate(&mut self, txs: impl IntoIterator<Item = T>) {
        for tx in txs {
            self.insert(tx);
        }
    }

    /// Selects transactions for a new block: highest fee rate first,
    /// greedily, until adding the next candidate would exceed
    /// `capacity_weight`. The selected transactions stay in the pool
    /// until [confirmed](Mempool::remove_confirmed) — the block might
    /// lose a fork race.
    pub fn select_for_block(&self, capacity_weight: u64) -> Vec<T> {
        // Highest rate first; equal rates in ascending id (map key) order.
        let mut candidates: Vec<(&Digest, &T)> = self.txs.iter().collect();
        candidates.sort_by(|(a_id, a), (b_id, b)| {
            Self::fee_rate(b)
                .total_cmp(&Self::fee_rate(a))
                .then_with(|| a_id.cmp(b_id))
        });
        let mut out = Vec::new();
        let mut used = 0u64;
        for (_, tx) in candidates {
            let w = tx.weight();
            if used + w > capacity_weight {
                continue; // smaller later txs may still fit
            }
            used += w;
            out.push(tx.clone());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::testutil::TestTx;

    fn tx(tag: u64, fee: u64, weight: u64) -> TestTx {
        TestTx { tag, fee, weight }
    }

    #[test]
    fn insert_and_contains() {
        let mut pool = Mempool::new(10);
        let t = tx(1, 5, 100);
        assert!(pool.insert(t.clone()));
        assert!(pool.contains(&t.id()));
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.total_weight(), 100);
    }

    #[test]
    fn duplicate_refused() {
        let mut pool = Mempool::new(10);
        let t = tx(1, 5, 100);
        assert!(pool.insert(t.clone()));
        assert!(!pool.insert(t));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn selection_prefers_fee_rate_not_absolute_fee() {
        let mut pool = Mempool::new(10);
        pool.insert(tx(1, 10, 1000)); // rate 0.01
        pool.insert(tx(2, 5, 100)); // rate 0.05
        let selected = pool.select_for_block(100);
        assert_eq!(selected.len(), 1);
        assert_eq!(selected[0].tag, 2);
    }

    #[test]
    fn selection_respects_capacity() {
        let mut pool = Mempool::new(10);
        for i in 0..5 {
            pool.insert(tx(i, 10, 100));
        }
        let selected = pool.select_for_block(250);
        assert_eq!(selected.len(), 2);
        // Selected txs remain pooled until confirmed.
        assert_eq!(pool.len(), 5);
    }

    #[test]
    fn selection_skips_large_and_takes_smaller() {
        let mut pool = Mempool::new(10);
        pool.insert(tx(1, 100, 300)); // best rate but too big after first
        pool.insert(tx(2, 50, 300));
        pool.insert(tx(3, 1, 50)); // low rate but fits in the gap
        let selected = pool.select_for_block(350);
        let tags: Vec<u64> = selected.iter().map(|t| t.tag).collect();
        assert_eq!(tags, vec![1, 3]);
    }

    #[test]
    fn eviction_keeps_higher_fee_rates() {
        let mut pool = Mempool::new(2);
        pool.insert(tx(1, 1, 100)); // rate 0.01
        pool.insert(tx(2, 2, 100)); // rate 0.02
                                    // Better than tx 1 -> evicts it.
        assert!(pool.insert(tx(3, 5, 100)));
        assert_eq!(pool.len(), 2);
        assert!(!pool.contains(&tx(1, 1, 100).id()));
        // Worse than everything -> refused.
        assert!(!pool.insert(tx(4, 1, 1000)));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn remove_confirmed_clears_entries() {
        let mut pool = Mempool::new(10);
        let a = tx(1, 1, 10);
        let b = tx(2, 1, 10);
        pool.insert(a.clone());
        pool.insert(b.clone());
        pool.remove_confirmed(vec![a.id()]);
        assert!(!pool.contains(&a.id()));
        assert!(pool.contains(&b.id()));
    }

    #[test]
    fn reinstate_after_reorg() {
        let mut pool = Mempool::new(10);
        let orphaned = vec![tx(1, 1, 10), tx(2, 1, 10)];
        pool.reinstate(orphaned.clone());
        assert_eq!(pool.len(), 2);
        assert!(pool.contains(&orphaned[0].id()));
    }

    #[test]
    fn equal_rates_come_out_in_ascending_id_order() {
        let mut pool = Mempool::new(10);
        for i in 0..8 {
            pool.insert(tx(i, 10, 100));
        }
        let ids: Vec<Digest> = pool.select_for_block(800).iter().map(TestTx::id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids.len(), 8);
        assert_eq!(ids, sorted);
    }

    #[test]
    fn deterministic_tie_break() {
        let mut pool = Mempool::new(10);
        for i in 0..5 {
            pool.insert(tx(i, 10, 100)); // identical rates
        }
        let first = pool.select_for_block(500);
        let second = pool.select_for_block(500);
        assert_eq!(
            first.iter().map(|t| t.tag).collect::<Vec<_>>(),
            second.iter().map(|t| t.tag).collect::<Vec<_>>()
        );
    }
}
