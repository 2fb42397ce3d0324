//! Smoke coverage for the e01–e18 experiment binaries.
//!
//! Runs every experiment with `DLT_SMOKE=1` (tiny parameters) through
//! `cargo run --offline`, asserting each exits 0 and writes a valid,
//! non-empty JSON report via `DLT_JSON_OUT`. A separate test runs
//! e04, e06, e09, e10, e11, e13 and e18 twice each with their fixed
//! seeds and requires byte-identical stdout (dispatch-hash lines
//! included) and JSON — the workspace-wide determinism guarantee CI
//! leans on. A third test runs e09 with `DLT_TRACE=1`
//! and asserts the emitted event log is parseable, non-empty JSON, and
//! a fourth requires e06 and e09 to print the same stdout traced and
//! untraced.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::Command;

use dlt_testkit::json;

/// Every experiment binary with the banner id its report must carry.
const EXPERIMENTS: &[(&str, &str)] = &[
    ("e01_structures", "e01"),
    ("e02_lattice", "e02"),
    ("e03_settlement", "e03"),
    ("e04_forks", "e04"),
    ("e05_confidence", "e05"),
    ("e06_dag_confirm", "e06"),
    ("e07_ledger_size", "e07"),
    ("e08_pruning", "e08"),
    ("e09_throughput", "e09"),
    ("e10_consensus", "e10"),
    ("e11_blocksize", "e11"),
    ("e12_channels", "e12"),
    ("e13_sharding", "e13"),
    ("e14_retarget", "e14"),
    ("e15_energy", "e15"),
    ("e16_plasma", "e16"),
    ("e17_tangle", "e17"),
    ("e18_faults", "e18"),
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ lives under the workspace root")
        .to_path_buf()
}

/// Runs one experiment binary in smoke mode with the extra `env`,
/// returning its stdout and the JSON report it wrote.
fn run_experiment(bin: &str, tag: &str, env: &[(&str, &OsStr)]) -> (String, String) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let json_out =
        std::env::temp_dir().join(format!("dlt_smoke_{bin}_{tag}_{}.json", std::process::id()));
    let output = Command::new(cargo)
        .current_dir(workspace_root())
        .args([
            "run",
            "--quiet",
            "--offline",
            "-p",
            "dlt-bench",
            "--bin",
            bin,
        ])
        .env("DLT_SMOKE", "1")
        .env("DLT_JSON_OUT", &json_out)
        .envs(env.iter().copied())
        .output()
        .expect("spawn cargo run");
    assert!(
        output.status.success(),
        "{bin} failed with {:?}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    let report = std::fs::read_to_string(&json_out)
        .unwrap_or_else(|err| panic!("{bin} wrote no JSON report: {err}"));
    std::fs::remove_file(&json_out).ok();
    (stdout, report)
}

fn assert_valid_report(bin: &str, id: &str, report: &str) {
    let parsed =
        json::parse(report).unwrap_or_else(|err| panic!("{bin} report is not valid JSON: {err}"));
    assert_eq!(
        parsed.get("id").and_then(|v| v.as_str()),
        Some(id),
        "{bin} report carries the wrong experiment id"
    );
    let tables = parsed
        .get("tables")
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("{bin} report has no tables array"));
    assert!(!tables.is_empty(), "{bin} captured no tables");
    for table in tables {
        let headers = table
            .get("headers")
            .and_then(|v| v.as_array())
            .expect("table has headers");
        let rows = table
            .get("rows")
            .and_then(|v| v.as_array())
            .expect("table has rows");
        for row in rows {
            assert_eq!(
                row.as_array().expect("row is an array").len(),
                headers.len(),
                "{bin} row arity drifted from its header"
            );
        }
    }
}

#[test]
fn every_experiment_exits_zero_with_a_valid_json_report() {
    for &(bin, id) in EXPERIMENTS {
        let (stdout, report) = run_experiment(bin, "a", &[]);
        assert!(
            stdout.contains(&format!("{id}:")),
            "{bin} stdout is missing its banner"
        );
        assert_valid_report(bin, id, &report);
    }
}

#[test]
fn sim_experiments_are_byte_deterministic_across_runs() {
    // e04 exercises the miner network, e09 the workload adapters,
    // e10 the consensus primitives, e18 the fault-injection
    // interceptor — together they cover the refactored engine,
    // metrics, payload-sharing, and fault paths. e04, e06, e11, e13
    // and e18 print each simulation's dispatch hash, so their stdout
    // also compares the two runs event for event.
    for (bin, fingerprint) in [
        ("e04_forks", Some("dispatch_hash[")),
        ("e06_dag_confirm", Some("dispatch_hash[")),
        ("e09_throughput", None),
        ("e10_consensus", None),
        ("e11_blocksize", Some("dispatch_hash[")),
        ("e13_sharding", Some("combined_hash[e13]=0x")),
        ("e18_faults", Some("dispatch_hash[")),
    ] {
        let (stdout_first, report_first) = run_experiment(bin, "b", &[]);
        let (stdout_second, report_second) = run_experiment(bin, "c", &[]);
        if let Some(prefix) = fingerprint {
            assert!(
                stdout_first.lines().any(|line| line.starts_with(prefix)),
                "{bin} printed no {prefix}… line"
            );
        }
        assert_eq!(
            stdout_first, stdout_second,
            "{bin} stdout differs between seeded runs"
        );
        assert_eq!(
            report_first, report_second,
            "{bin} JSON differs between seeded runs"
        );
    }
}

#[test]
fn dlt_trace_emits_a_parseable_event_log() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let trace_out = std::env::temp_dir().join(format!("dlt_trace_e09_{}.json", std::process::id()));
    let output = Command::new(cargo)
        .current_dir(workspace_root())
        .args([
            "run",
            "--quiet",
            "--offline",
            "-p",
            "dlt-bench",
            "--bin",
            "e09_throughput",
        ])
        .env("DLT_SMOKE", "1")
        .env("DLT_TRACE", "1")
        .env("DLT_TRACE_OUT", &trace_out)
        .output()
        .expect("spawn cargo run");
    assert!(
        output.status.success(),
        "traced e09 failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&trace_out).expect("DLT_TRACE=1 wrote an event log");
    std::fs::remove_file(&trace_out).ok();
    let parsed = json::parse(&text).expect("trace log is valid JSON");
    let events = parsed
        .get("events")
        .and_then(|v| v.as_array())
        .expect("trace log has an events array");
    assert!(!events.is_empty(), "trace log captured no events");
    // The workload milestones must be present alongside any engine
    // events.
    let has_mark = events.iter().any(|e| {
        e.get("type").and_then(|v| v.as_str()) == Some("mark")
            && e.get("label").and_then(|v| v.as_str()) == Some("workload.offered")
    });
    assert!(has_mark, "trace log is missing workload milestone marks");
}

#[test]
fn dlt_trace_never_changes_stdout() {
    // e06 prints the dispatch hash of every DAG run; tracing observes
    // the schedule and must not perturb it or any printed figure.
    for bin in ["e06_dag_confirm", "e09_throughput"] {
        let trace_out =
            std::env::temp_dir().join(format!("dlt_trace_{bin}_{}.json", std::process::id()));
        let (untraced, _) = run_experiment(bin, "untraced", &[]);
        let (traced, _) = run_experiment(
            bin,
            "traced",
            &[
                ("DLT_TRACE", OsStr::new("1")),
                ("DLT_TRACE_OUT", trace_out.as_os_str()),
            ],
        );
        assert!(trace_out.exists(), "{bin} wrote no event log");
        std::fs::remove_file(&trace_out).ok();
        assert_eq!(untraced, traced, "{bin} stdout changes under DLT_TRACE=1");
    }
}
