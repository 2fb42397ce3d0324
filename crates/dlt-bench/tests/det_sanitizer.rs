//! Dispatch-hash determinism regression tests over e18's six fault
//! scenarios and the e13 shard cells.
//!
//! PR 3 asserts e18 smoke byte-determinism at the JSON level; these
//! tests assert it one layer deeper — the engine's per-event dispatch
//! hash — so a nondeterminism bug is caught even when it cancels out
//! of the aggregated report. Each scenario is built and run twice from
//! the same seed via `dlt_bench::faults` (the exact code the e18
//! binary drives) and both runs must fold the identical
//! `(time, seq, node, msg)` dispatch sequence.

use dlt_bench::faults::{run_blockchain_scenario, run_dag_scenario, scenarios};
use dlt_bench::shardnet::{cell_params, run_cell};
use dlt_sim::time::SimTime;
use dlt_testkit::det::assert_deterministic;

#[test]
fn blockchain_scenarios_dispatch_hash_is_deterministic() {
    // Shorter than the smoke run: the hash covers every dispatch, so a
    // divergence shows up within seconds of simulated time.
    let run = SimTime::from_secs(30);
    for (i, scenario) in scenarios().iter().enumerate() {
        assert_deterministic(i as u64, |_| {
            let sim = run_blockchain_scenario(i, scenario, run, |_| {});
            sim.dispatch_hash()
        });
    }
}

#[test]
fn dag_scenarios_dispatch_hash_is_deterministic() {
    let run = SimTime::from_secs(20);
    for (i, scenario) in scenarios().iter().enumerate() {
        assert_deterministic(i as u64, |_| {
            let sim = run_dag_scenario(i, scenario, 3, run, |_| {});
            sim.dispatch_hash()
        });
    }
}

#[test]
fn dispatch_hash_distinguishes_scenarios() {
    // Sanity check that the hash is actually sensitive: different
    // fault schedules over the same workload must not collide.
    let run = SimTime::from_secs(20);
    let hashes: Vec<u64> = scenarios()
        .iter()
        .enumerate()
        .map(|(i, s)| run_blockchain_scenario(i, s, run, |_| {}).dispatch_hash())
        .collect();
    for (i, a) in hashes.iter().enumerate() {
        for (j, b) in hashes.iter().enumerate().skip(i + 1) {
            assert_ne!(a, b, "scenario {i} and {j} produced identical hashes");
        }
    }
}

#[test]
fn shard_combined_hash_is_deterministic_and_thread_invariant() {
    // The e13 shard executor folds live (non-zero) per-shard dispatch
    // hashes; the fold must be reproducible across runs and invariant
    // to the worker-thread count.
    let params = cell_params(4, 0.3, 2, true);
    assert_deterministic(params.seed, |_| run_cell(&params, 1).combined_hash);
    let serial = run_cell(&params, 1);
    assert!(
        serial.shard_hashes.iter().all(|&h| h != 0),
        "every build must report live per-shard hashes: {:?}",
        serial.shard_hashes
    );
    for threads in [2, 4] {
        let parallel = run_cell(&params, threads);
        assert_eq!(serial.shard_hashes, parallel.shard_hashes);
        assert_eq!(serial.combined_hash, parallel.combined_hash);
    }
}

#[test]
fn shard_combined_hash_is_seed_sensitive() {
    // Different sweep cells must not collide: the combined hash covers
    // every dispatch in every shard, so a different per-cell seed (the
    // PR's seeding bugfix) has to surface in it.
    let a = run_cell(&cell_params(4, 0.3, 2, true), 1).combined_hash;
    let b = run_cell(&cell_params(4, 0.3, 3, true), 1).combined_hash;
    assert_ne!(a, b, "distinct f_index cells produced identical hashes");
}

#[test]
fn msg_digester_changes_the_hash() {
    // With a payload digester installed the hash must also cover
    // message content, so it diverges from the digester-free hash.
    let run = SimTime::from_secs(20);
    let scenarios = scenarios();
    let plain = run_blockchain_scenario(0, &scenarios[0], run, |_| {}).dispatch_hash();
    let digested = run_blockchain_scenario(0, &scenarios[0], run, |sim| {
        sim.set_msg_digester(|msg| match msg {
            dlt_blockchain::node::NetMsg::Block(b) => b.header.height,
            dlt_blockchain::node::NetMsg::Tx(_) => 1,
        });
    })
    .dispatch_hash();
    assert_ne!(plain, digested);
}
