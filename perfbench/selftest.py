#!/usr/bin/env python3
"""Tiny-length self-test of the benchmark (about ten seconds).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, and for the runnable workloads
it does not gate (ocean16-privl2, db2-1024), runs run.py at a tiny scale with --trace 0 and
--trace 1 and checks that:
  - the result object holds every end_to_end (trace 0) or per_layer
    (trace 1) metric with its unit, and nothing else;
  - the result is correct, with at least one check attempted and none
    failed (trace 1 includes "traced counters equal untraced");
  - both runs print the same reference counter digest;
  - the trace 0 report also prints forced_inv_per_1k, the latency
    percentiles and checks_failed.
Exits non-zero after listing every failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.005"
SEED = "5"
UNGATED = ["ocean16-privl2", "db2-1024"]


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", SEED, "--seconds", "1", "--trace", trace, "--scale", SCALE],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"run.py exited {out.returncode}: "
                           f"{out.stderr[-2000:]}")
    return out.stdout.splitlines()


def digest(lines):
    for line in lines:
        if line.startswith('{"workload"'):
            return json.loads(line)["digest"]
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in [w["name"] for w in spec["workloads"]] + UNGATED:
        digests = {}
        for trace in ("0", "1"):
            label = f"{workload} --trace {trace}"
            try:
                lines = run(workload, trace)
            except (RuntimeError, subprocess.TimeoutExpired) as e:
                failures.append(f"{label}: {e}")
                continue
            result = json.loads(lines[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                failures.append(f"{label}: metrics/units differ from "
                                f"BENCHMARK.json: {units}")
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                failures.append(f"{label}: checks failed: "
                                f"{result['failed']} of "
                                f"{result['attempted']}")
            digests[trace] = digest(lines)
            if trace == "0":
                report = "\n".join(lines)
                for name in ("forced_inv_per_1k", "lat_", "checks_failed"):
                    if name not in report:
                        failures.append(f"{label}: report lacks {name}")
            print(f"ok {label}: {result['attempted']} checks, "
                  f"digest {digests[trace]}")
        if len(digests) == 2 and (digests["0"] is None
                                  or digests["0"] != digests["1"]):
            failures.append(f"{workload}: counter digests differ between "
                            f"runs: {digests}")
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
