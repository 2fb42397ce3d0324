#!/usr/bin/env python3
"""End-to-end benchmark of the dlt-compare simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then starts one `perfbench` process per
repetition until `--seconds` of repetitions have run (at least three).
Each process builds its inputs from the seed, runs the workload once and
checks it. On the workloads whose host time is mostly hashing, a short
process times a fixed reference computation (`perfbench --calibrate`)
before each repetition and once after the last; the median of those
times gives the host's speed during this run, and the host times are
reported at the speed of the reference host. This script reports the median host metrics over the repetitions, the
simulated metrics (which must repeat exactly for one seed), and, with
`--trace 1`, the per-layer metrics of traced repetitions run
alternately with untraced ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when every check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["chain-gossip", "lattice-settle", "ledger-poll", "shard-cell"]
MIN_REPS = 3
REP_TIMEOUT_S = 120
BUDGET_S = 160  # stay well inside a 180 s limit once built

# Seconds `perfbench --calibrate` takes on the reference host, the 2-core
# Xeon (KVM) the bounds in BENCHMARK.json were set on. Host times are
# reported at that host's speed; see perfbench/src/calib.rs.
CALIB_REF_S = 0.05
# Workloads whose host time is mostly hashing, like the reference work.
# `shard-cell` does no hashing, so its speed does not follow the
# reference work, and its host times are reported unscaled.
CALIBRATED = {"chain-gossip", "lattice-settle", "ledger-poll"}


def load_metrics():
    """End-to-end and per-layer (name, unit) lists from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return (
        [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"]) for m in spec["per_layer"]],
    )


END_TO_END, PER_LAYER = load_metrics()

# Simulated values printed with the end-to-end set (exact per seed).
CONFIRM_KEYS = [
    ("confirm_p50_ms", "confirm.p50_ms"),
    ("confirm_p99_ms", "confirm.p99_ms"),
    ("confirm_tail_percentile", "confirm.tail_percentile"),
    ("confirm_samples", "confirm.samples"),
    ("confirm_resolution_ms", "confirm.resolution_ms"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark; returns the binary path or None."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(os.path.join(ROOT, target))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--locked",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"perfbench: build failed: {err}")
        return None
    if done.returncode != 0:
        log("perfbench: build failed")
        return None
    return os.path.join(target, "release", "perfbench"), target


def run_rep(binary, workload, seed, traced, trace_dir, extra=()):
    """One workload process; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), *extra]
    if traced:
        os.makedirs(trace_dir, exist_ok=True)
        cmd += [
            "--trace",
            "--trace-out",
            os.path.join(trace_dir, f"{workload}-{seed}.json"),
        ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} timed out")
        return 1, None
    if done.stderr:
        sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def calibrate(binary):
    """Seconds of the reference work, timed in a process of its own."""
    try:
        done = subprocess.run(
            [binary, "--calibrate"], cwd=ROOT, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S,
        )
        return float(done.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, ValueError, IndexError):
        log("perfbench: calibration failed")
        return None


def host_tps(rep):
    return rep["offered"] / rep["run_s"]


def summarize(workload, reps, traced_reps, calibs):
    """Aggregates repetitions into (correct, metrics, layer metrics)."""
    first = reps[0]
    correct = True
    for rep in reps + traced_reps:
        failed_checks = [name for name, ok in rep["checks"].items() if not ok]
        if failed_checks:
            log(f"perfbench: {workload}: failed checks {failed_checks}")
            correct = False
        if rep["sim"] != first["sim"] or rep["digest"] != first["digest"]:
            log(f"perfbench: {workload}: simulated outcome differs between repetitions")
            correct = False
    sim = first["sim"]
    # Host speed during this run relative to the reference host.
    speed = statistics.median(calibs) / CALIB_REF_S if calibs else 1.0
    raw_setup_s = statistics.median(r["setup_s"] for r in reps)
    raw_tps = statistics.median(host_tps(r) for r in reps)
    metrics = {
        "setup_s": raw_setup_s / speed,
        "host_tx_per_s": raw_tps * speed,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "sim_confirmed_tps": sim["sim_confirmed_tps"],
        "ok_frac": 1.0 - first["failed"] / first["offered"],
    }
    layers = {}
    if traced_reps:
        keys = set().union(*(r["layers"].keys() for r in traced_reps))
        for key in keys:
            layers[key] = statistics.median(r["layers"].get(key, 0.0) for r in traced_reps)
        for sim_key, layer_key in CONFIRM_KEYS:
            if sim_key in sim:
                layers[layer_key] = sim[sim_key]
        layers["host.calib_ms"] = statistics.median(calibs) * 1e3 if calibs else 0.0
        layers["host.raw_setup_s"] = raw_setup_s
        layers["host.raw_tx_per_s"] = raw_tps
        traced_tps = statistics.median(host_tps(r) for r in traced_reps) * speed
        layers["trace.host_tx_per_s"] = traced_tps
        layers["trace.overhead_frac"] = 1.0 - traced_tps / metrics["host_tx_per_s"]
    return correct, metrics, layers


def print_table(args, reps, traced_reps, calibs, metrics, layers):
    """Prints every metric by name with its unit, for people."""
    sim = reps[0]["sim"]
    n = len(reps)
    print(f"# {args.workload} seed {args.seed}: {n} untraced and "
          f"{len(traced_reps)} traced repetitions, one process each")
    scaled = ", at reference host speed" if calibs else ""
    for name, unit in END_TO_END:
        how = {
            "setup_s": f"median of {n}{scaled}",
            "host_tx_per_s": f"median of {n}{scaled}",
            "peak_rss_mb": f"median of {n}",
        }.get(name, "simulated")
        print(f"{name:<32} {metrics[name]:>16.6g} {unit:<6} ({how})")
    if calibs:
        calib_ms = statistics.median(calibs) * 1e3
        print(f"{'host_calib_ms':<32} {calib_ms:>16.6g} {'ms':<6} "
              f"(median of {len(calibs)}; reference host {CALIB_REF_S * 1e3:g} ms)")
    if "confirm_p50_ms" in sim:
        samples = int(sim["confirm_samples"])
        resolution = sim["confirm_resolution_ms"]
        exact = f"resolution {resolution:g} ms" if resolution else "exact"
        print(f"{'confirm_p50_ms':<32} {sim['confirm_p50_ms']:>16.6g} {'ms':<6} "
              f"(simulated, {samples} samples, {exact})")
        print(f"{'confirm_p99_ms':<32} {sim['confirm_p99_ms']:>16.6g} {'ms':<6} "
              f"(simulated p{sim['confirm_tail_percentile']:.4g}, {samples} samples)")
    print(f"{'generator_lateness_ms':<32} {0:>16} {'ms':<6} "
          "(arrivals are pre-scheduled in simulated time)")
    shown = {"offered", "failed", "sim_confirmed_tps"} | {key for key, _ in CONFIRM_KEYS}
    for key in sorted(set(sim) - shown):
        print(f"{key:<32} {sim[key]:>16.6g} {'':<6} (simulated)")
    print(f"{'digest':<32} {reps[0]['digest']:>16} {'':<6} (inputs {reps[0]['input_digest']})")
    checks = reps[0]["checks"]
    passed = sum(all(r["checks"][name] for r in reps + traced_reps) for name in checks)
    print(f"{'checks_passed':<32} {passed:>16} {'count':<6} (of {len(checks)}: {', '.join(sorted(checks))})")
    for name, unit in PER_LAYER:
        if name in layers:
            print(f"{name:<32} {layers[name]:>16.6g} {unit}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    built = build()
    if built is None:
        return 1
    binary, target = built
    trace_dir = os.path.join(target, "perfbench-trace")

    # Repetitions, one process each, until the measuring time is used.
    start = time.monotonic()
    reps, traced_reps, calibs = [], [], []
    calibrated = args.workload in CALIBRATED
    while True:
        elapsed = time.monotonic() - start
        count = len(reps) + len(traced_reps)
        if count >= MIN_REPS * (1 + args.trace) and elapsed >= args.seconds:
            break
        if count and elapsed + elapsed / count > BUDGET_S:
            break
        traced = bool(args.trace) and len(traced_reps) < len(reps)
        if calibrated:
            calibs.append(calibrate(binary))
            if calibs[-1] is None:
                return 1
        code, result = run_rep(binary, args.workload, args.seed, traced, trace_dir)
        if result is None or code not in (0, 1):
            log(f"perfbench: {args.workload} exited with {code} and no result")
            return 1
        (traced_reps if traced else reps).append(result)
        if code != 0:
            break

    if calibrated:
        calibs.append(calibrate(binary))
        if calibs[-1] is None:
            return 1
    correct, metrics, layers = summarize(args.workload, reps, traced_reps, calibs)
    print_table(args, reps, traced_reps, calibs, metrics, layers)
    if args.trace:
        result_metrics = {
            name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER
        }
    else:
        result_metrics = {
            name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END
        }
    print(json.dumps({
        "correct": correct,
        "attempted": int(reps[0]["offered"]),
        "failed": int(reps[0]["failed"]),
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
