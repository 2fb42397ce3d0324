//! Determinism guarantees of the parallel shard executor
//! (`dlt_sim::shard`, DESIGN.md §3d): a run on K worker threads must be
//! indistinguishable from the serial run — identical merged metrics,
//! identical combined dispatch hash, byte-identical e13 stdout — and
//! the cross-shard exchange order must be invariant to the order worker
//! threads happen to finish in.

use std::path::{Path, PathBuf};
use std::process::Command;

use dlt_bench::shardnet::{cell_params, run_cell, ShardNetParams};
use dlt_sim::rng::SimRng;
use dlt_sim::shard::{mix, sort_exchange, CrossMsg};
use dlt_sim::time::SimTime;

fn small_cell(shards: usize, f: f64) -> ShardNetParams {
    ShardNetParams {
        shards,
        capacity: 40.0,
        cross_fraction: f,
        offered_per_shard: 100.0,
        duration: 4.0,
        epoch_len: SimTime::from_millis(500),
        cross_latency: SimTime::from_millis(80),
        replicas: 2,
        seed: 0x5eed_ce11,
    }
}

#[test]
fn parallel_runs_match_serial_metrics_and_hash() {
    for (shards, f) in [(2, 0.1), (4, 0.3), (4, 1.0), (8, 0.5)] {
        let serial = run_cell(&small_cell(shards, f), 1);
        assert!(
            serial.shard_hashes.iter().all(|&h| h != 0),
            "every shard reports a live dispatch hash at K={shards} f={f}: {:?}",
            serial.shard_hashes
        );
        for threads in [2, 4, 16] {
            let parallel = run_cell(&small_cell(shards, f), threads);
            assert_eq!(
                serial.completed, parallel.completed,
                "completed txs diverged at K={shards} f={f} threads={threads}"
            );
            assert_eq!(
                serial.cross_messages, parallel.cross_messages,
                "exchange volume diverged at K={shards} f={f} threads={threads}"
            );
            assert_eq!(
                serial.undelivered, parallel.undelivered,
                "final-epoch drops diverged at K={shards} f={f} threads={threads}"
            );
            assert_eq!(
                serial.combined_hash, parallel.combined_hash,
                "combined dispatch hash diverged at K={shards} f={f} threads={threads}"
            );
            assert_eq!(
                serial.metrics.to_string(),
                parallel.metrics.to_string(),
                "merged metrics diverged at K={shards} f={f} threads={threads}"
            );
        }
    }
}

#[test]
fn e13_cell_params_reproduce_independently() {
    // The per-cell seed bugfix: a cell's outcome must not depend on
    // which sweep cells ran before it, so running the same cell twice
    // in isolation reproduces it exactly.
    let params = cell_params(4, 0.3, 2, true);
    let a = run_cell(&params, 1);
    let b = run_cell(&params, 2);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.combined_hash, b.combined_hash);
    assert_eq!(a.metrics.to_string(), b.metrics.to_string());
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ lives under the workspace root")
        .to_path_buf()
}

/// Runs e13 in smoke mode with the given thread count, returning
/// (stdout, JSON report).
fn run_e13(threads: usize, tag: &str) -> (String, String) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let json_out = std::env::temp_dir().join(format!(
        "dlt_shard_det_e13_{tag}_{}.json",
        std::process::id()
    ));
    let output = Command::new(cargo)
        .current_dir(workspace_root())
        .args([
            "run",
            "--quiet",
            "--offline",
            "-p",
            "dlt-bench",
            "--bin",
            "e13_sharding",
        ])
        .env("DLT_SMOKE", "1")
        .env("DLT_THREADS", threads.to_string())
        .env("DLT_JSON_OUT", &json_out)
        .output()
        .expect("spawn cargo run");
    assert!(
        output.status.success(),
        "e13 with DLT_THREADS={threads} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    let report = std::fs::read_to_string(&json_out).expect("e13 wrote a JSON report");
    std::fs::remove_file(&json_out).ok();
    (stdout, report)
}

#[test]
fn e13_stdout_is_byte_identical_across_thread_counts() {
    let (stdout_serial, report_serial) = run_e13(1, "t1");
    let (stdout_parallel, report_parallel) = run_e13(4, "t4");
    assert_eq!(
        stdout_serial, stdout_parallel,
        "e13 stdout depends on DLT_THREADS"
    );
    assert_eq!(
        report_serial, report_parallel,
        "e13 JSON report depends on DLT_THREADS"
    );
}

dlt_testkit::prop! {
    fn exchange_order_is_invariant_to_completion_order(g, cases = 128) {
        // Build a random barrier outbox: per-shard strictly-monotone
        // seqs, arbitrary (possibly colliding) timestamps.
        let shards = g.usize_in(2, 6);
        let mut canonical: Vec<CrossMsg<u64>> = Vec::new();
        for src in 0..shards {
            let n = g.usize_in(0, 8);
            let mut seq = 0u64;
            for _ in 0..n {
                seq += 1 + g.u64_below(3);
                canonical.push(CrossMsg {
                    sent_at: SimTime::from_millis(g.u64_below(5)),
                    seq,
                    src,
                    dst: g.usize_in(0, shards),
                    payload: g.any_u64(),
                });
            }
        }

        // Serial path: shards emit in index order. Parallel path: the
        // coordinator concatenates per-thread outboxes in whatever
        // order threads finish — model that as a random permutation of
        // per-shard chunks, then of message interleavings.
        let mut serial_view = canonical.clone();
        sort_exchange(&mut serial_view);

        let mut scrambled = canonical.clone();
        let mut rng = SimRng::new(g.any_u64());
        rng.shuffle(&mut scrambled);
        sort_exchange(&mut scrambled);

        assert_eq!(
            serial_view, scrambled,
            "exchange order depends on outbox arrival order"
        );
        // The (sent_at, seq, src) key is total: no two adjacent sorted
        // messages compare equal on it.
        for pair in serial_view.windows(2) {
            let ka = (pair[0].sent_at, pair[0].seq, pair[0].src);
            let kb = (pair[1].sent_at, pair[1].seq, pair[1].src);
            assert!(ka < kb, "exchange key collision: {ka:?} vs {kb:?}");
        }
    }
}

dlt_testkit::prop! {
    fn random_small_cells_agree_serial_vs_parallel(g, cases = 6) {
        let shards = g.usize_in(2, 6);
        let params = ShardNetParams {
            shards,
            capacity: g.f64_in(20.0, 60.0),
            cross_fraction: g.f64_in(0.0, 1.0),
            offered_per_shard: g.f64_in(30.0, 90.0),
            duration: 2.0,
            epoch_len: SimTime::from_millis(400),
            cross_latency: SimTime::from_millis(60),
            replicas: 1,
            seed: g.any_u64(),
        };
        let threads = g.usize_in(2, shards + 1);
        let serial = run_cell(&params, 1);
        let parallel = run_cell(&params, threads);
        assert_eq!(serial.completed, parallel.completed);
        assert_eq!(serial.combined_hash, parallel.combined_hash);
        assert_eq!(serial.metrics.to_string(), parallel.metrics.to_string());

        // Transaction accounting: every completed debit was exchanged
        // at a barrier or left over by the final epoch, no more credits
        // complete than were exchanged, and no validator completes more
        // than one job per M/D/1 service slot.
        let m = &serial.metrics;
        assert_eq!(
            m.count("tx.cross_debits"),
            serial.cross_messages + serial.undelivered
        );
        assert!(m.count("tx.completed_cross") <= serial.cross_messages);
        let service = SimTime::from_secs_f64(1.0 / params.capacity).as_secs_f64();
        let slots = shards as u64 * (params.duration / service).ceil() as u64;
        assert!(serial.completed <= slots, "{} > {slots}", serial.completed);
    }
}

#[test]
fn combined_hash_folds_in_shard_index_order() {
    // The combined hash is defined as mix(mix(0, K), h_0, …, h_{K-1});
    // recompute it from the reported per-shard hashes, which are live
    // (non-zero) in every build, to pin the definition.
    let out = run_cell(&small_cell(3, 0.4), 2);
    assert_eq!(out.shard_hashes.len(), 3);
    assert!(out.shard_hashes.iter().all(|&h| h != 0));
    let mut expect = mix(0, 3);
    for &h in &out.shard_hashes {
        expect = mix(expect, h);
    }
    assert_eq!(out.combined_hash, expect);
}
