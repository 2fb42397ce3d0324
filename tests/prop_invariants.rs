//! Property-based tests over the core data structures and invariants,
//! on the in-repo `dlt_testkit::prop!` harness.

use std::collections::HashMap;

use dlt_blockchain::difficulty::{retarget, RetargetParams};
use dlt_crypto::codec::{decode_exact, Decode, Encode};
use dlt_crypto::merkle::MerkleTree;
use dlt_crypto::sha256::{sha256, Sha256};
use dlt_crypto::trie::TrieDb;
use dlt_crypto::Digest;
use dlt_dag::account::NanoAccount;
use dlt_dag::lattice::{Lattice, LatticeParams};
use dlt_dag::voting::Election;
use dlt_testkit::prop;

prop! {
    /// Streaming SHA-256 equals one-shot hashing for any chunking.
    fn sha256_streaming_equals_oneshot(g, cases = 64) {
        let data = g.bytes_in(0, 2048);
        let splits = g.vec_in(0, 8, |g| g.usize_in(0, 2048));
        let oneshot = sha256(&data);
        let mut hasher = Sha256::new();
        let mut cuts: Vec<usize> = splits.into_iter().map(|s| s % (data.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut start = 0;
        for cut in cuts {
            hasher.update(&data[start..cut]);
            start = cut;
        }
        hasher.update(&data[start..]);
        assert_eq!(hasher.finalize(), oneshot);
    }
}

prop! {
    /// Codec round trips for random primitive compositions.
    fn codec_round_trips(g, cases = 64) {
        let a = g.any_u64();
        let b = g.any_bool();
        let s = g.ascii_string(0, 64);
        let v = g.vec_in(0, 32, |g| g.choice() as u32);
        let o = g.option(|g| g.any_u64());
        fn rt<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
            let bytes = value.encode_to_vec();
            assert_eq!(bytes.len(), value.encoded_len());
            let back: T = decode_exact(&bytes).unwrap();
            assert_eq!(back, value);
        }
        rt(a);
        rt(b);
        rt(s);
        rt(v);
        rt(o);
    }
}

prop! {
    /// Merkle proofs verify for every leaf, and fail for any other leaf.
    fn merkle_proofs_sound(g, cases = 64) {
        let seed_leaves = g.vec_in(1, 40, |g| g.any_u64());
        let probe = g.any_usize();
        let leaves: Vec<Digest> = seed_leaves.iter().map(|s| sha256(&s.to_be_bytes())).collect();
        let tree = MerkleTree::from_leaves(leaves.clone());
        let index = probe % leaves.len();
        let proof = tree.prove(index).unwrap();
        assert!(proof.verify(&tree.root(), &leaves[index]));
        // Wrong leaf must fail (when distinct).
        let other = (index + 1) % leaves.len();
        if leaves[other] != leaves[index] {
            assert!(!proof.verify(&tree.root(), &leaves[other]));
        }
    }
}

prop! {
    /// The trie agrees with a HashMap model under arbitrary
    /// insert/overwrite/remove interleavings, and its root is
    /// history-independent (same content ⇒ same root).
    fn trie_matches_model(g, cases = 64) {
        let ops = g.vec_in(1, 60, |g| (g.any_u8(), g.u8_in(0, 16), g.bytes_in(0, 6)));
        let mut db = TrieDb::new();
        let mut root = TrieDb::EMPTY_ROOT;
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for (op, key_byte, value) in &ops {
            let key = vec![*key_byte];
            if *op % 4 == 0 {
                root = db.remove(root, &key);
                model.remove(&key);
            } else {
                root = db.insert(root, &key, value.clone());
                model.insert(key, value.clone());
            }
        }
        for (key, value) in &model {
            assert_eq!(db.get(root, key), Some(value.as_slice()));
        }
        assert_eq!(db.iter(root).len(), model.len());

        // Rebuild from the final content in sorted order: same root.
        let mut db2 = TrieDb::new();
        let mut root2 = TrieDb::EMPTY_ROOT;
        let mut items: Vec<_> = model.iter().collect();
        items.sort();
        for (key, value) in items {
            root2 = db2.insert(root2, key, value.clone());
        }
        assert_eq!(root2, root);
    }
}

prop! {
    /// Difficulty retargeting is clamped and positive.
    fn retarget_bounded(g, cases = 64) {
        let old = g.u64_in(1, u64::MAX / 8);
        let span = g.u64_in(1, u64::MAX / 8);
        let params = RetargetParams {
            target_interval_micros: 600_000_000,
            window: 100,
            max_step: 4,
        };
        let new = retarget(&params, old, span);
        assert!(new >= 1);
        assert!(new <= old.saturating_mul(4).max(1));
        assert!(new >= old / 4 || old < 4);
    }
}

prop! {
    /// Elections: the winner's tally is maximal, and total cast weight
    /// never exceeds the sum of voted weights.
    fn election_winner_is_maximal(g, cases = 64) {
        let votes = g.vec_in(1, 50, |g| (g.u8_in(0, 20), g.u64_in(1, 1000), g.u8_in(0, 4)));
        let mut election = Election::new();
        for (rep, weight, candidate) in &votes {
            election.vote(
                dlt_crypto::keys::Address::from_label(&format!("r{rep}")),
                *weight,
                sha256(&[*candidate]),
            );
        }
        let (_winner, winner_weight) = election.leader().unwrap();
        assert!(winner_weight > 0);
        let total: u64 = votes.iter().map(|(_, w, _)| *w).sum();
        assert!(election.total_cast() <= total);
    }
}

prop! {
    /// The lattice conserves total supply under any valid interleaving
    /// of sends and receives, and rollback restores conservation.
    fn lattice_conserves_supply(g, cases = 12) {
        let transfers = g.vec_in(1, 12, |g| (g.usize_in(0, 4), g.usize_in(0, 4), g.u64_in(1, 50)));
        let rollback_choice = g.any_usize();
        let params = LatticeParams {
            work_difficulty_bits: 1,
            ..Default::default()
        };
        let supply = 1_000_000u64;
        let mut genesis = NanoAccount::from_seed([1u8; 32], 8, 1);
        let mut lattice = Lattice::new(params, genesis.genesis_block(supply));
        let mut accounts: Vec<NanoAccount> = (0..4)
            .map(|i| NanoAccount::from_seed([10 + i as u8; 32], 8, 1))
            .collect();
        // Fund everyone.
        let mut funded = Vec::new();
        for account in accounts.iter_mut() {
            let send = genesis.send(account.address(), 1_000).unwrap();
            let hash = lattice.process(send).unwrap();
            lattice.process(account.receive(hash, 1_000).unwrap()).unwrap();
        }
        // Random (valid) transfers; skip self-sends and over-spends.
        let mut settled_sends = Vec::new();
        for (from, to, amount) in transfers {
            if from == to {
                continue;
            }
            let to_address = accounts[to].address();
            let Ok(send) = accounts[from].send(to_address, amount) else {
                continue;
            };
            let hash = lattice.process(send).unwrap();
            let receive = accounts[to].receive(hash, amount).unwrap();
            lattice.process(receive).unwrap();
            settled_sends.push(hash);
            funded.push(hash);
            assert_eq!(lattice.circulating_total(), supply);
        }
        // Roll one settled transfer back (cascades through the receive).
        if !settled_sends.is_empty() {
            let victim = settled_sends[rollback_choice % settled_sends.len()];
            if lattice.rollback(&victim).is_ok() {
                assert_eq!(lattice.circulating_total(), supply);
            }
        }
    }
}
