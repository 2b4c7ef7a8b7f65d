#!/usr/bin/env python3
"""Repository benchmark entry point (see README.md in this directory).

    python3 perfbench/run.py --workload oltp16 --seed 1 --seconds 15 --trace 0

Builds this directory's CMake package (the driver plus the simulator
sources under src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload in a fresh process. The
driver's report is printed, then a provenance line, and last the result
object {"correct", "attempted", "failed", "metrics"}. Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import datetime
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
# The driver itself stops after --seconds plus one repetition; this only
# guards against a hung run.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configure and build; build logs go to stderr."""
    os.makedirs(bdir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                    ["cmake", "--build", bdir, "-j", jobs]):
            subprocess.run(cmd, stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench")


def cmake_cache(bdir):
    values = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                values[key.split(":", 1)[0]] = value
    return values


def first_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout
        return out.splitlines()[0] if out else ""
    except (OSError, subprocess.CalledProcessError):
        return None


def provenance(bdir):
    cache = cmake_cache(bdir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(f for f in (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""),
        "-std=c++20 -Wall -Wextra") if f)
    return {
        "git_describe": first_line(["git", "describe", "--always", "--dirty",
                                    "--tags"]) or "unknown (not a git checkout)",
        "build_type": build_type,
        "compiler": first_line([compiler, "--version"]) or compiler,
        "flags": flags,
        # The benchmark build never adds -march=native.
        "CDIR_NATIVE": "OFF",
        "nproc": os.cpu_count(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int,
                        help="generator seed (default: each generator's "
                             "fixed default)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every run length (self-test)")
    args = parser.parse_args()

    bdir = build_dir()
    try:
        exe = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [exe, "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", args.trace, "--scale", str(args.scale)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace == "1":
        spans = os.path.join(bdir, "spans")
        os.makedirs(spans, exist_ok=True)
        seed = "default" if args.seed is None else args.seed
        cmd += ["--spans-out", os.path.join(
            spans, f"{args.workload}-seed{seed}.jsonl")]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish within "
              f"{RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: driver exited with {run.returncode}",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("perfbench: driver printed no result object", file=sys.stderr)
        return 1

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"provenance": provenance(bdir)}))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
