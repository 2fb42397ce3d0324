#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/selftest.py

Builds the benchmark like `run.py` and runs every workload at the size
`run.py` measures, to check that
  * two runs with the same seed give identical simulated metrics and digests,
  * the traced run gives the same simulated metrics and digest as the untraced one,
  * a different seed changes the generated inputs,
  * `shard-cell` gives the same digest on 1 and 2 worker threads.
Exits non-zero if any test fails.
"""

import sys

sys.dont_write_bytecode = True

import run  # noqa: E402  (the benchmark driver beside this file)

SEED, OTHER_SEED = 7, 8


def main():
    built = run.build()
    if built is None:
        return 1
    binary, target = built
    trace_dir = f"{target}/perfbench-trace"
    failures = 0

    def rep(workload, seed, traced=False, extra=()):
        code, result = run.run_rep(
            binary, workload, seed, traced, trace_dir, extra
        )
        if code != 0 or result is None:
            raise RuntimeError(f"{workload} seed {seed} exited {code}")
        return result

    def expect(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}", flush=True)
        failures += 0 if ok else 1

    def same(a, b):
        return a["sim"] == b["sim"] and a["digest"] == b["digest"]

    for workload in run.WORKLOADS:
        first = rep(workload, SEED)
        expect(f"{workload}: same seed repeats", same(first, rep(workload, SEED)))
        expect(f"{workload}: tracing changes nothing simulated",
               same(first, rep(workload, SEED, traced=True)))
        expect(f"{workload}: another seed changes the inputs",
               first["input_digest"] != rep(workload, OTHER_SEED)["input_digest"])
    serial = rep("shard-cell", SEED, extra=["--threads", "1"])
    parallel = rep("shard-cell", SEED, extra=["--threads", "2"])
    expect("shard-cell: 1 and 2 threads agree", same(serial, parallel))
    print(f"{failures} failed", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
