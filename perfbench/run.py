#!/usr/bin/env python3
"""Whole-round benchmark entry point.

Builds the harness (perfbench/e2e.cpp, linked against the library in src/)
into .bench_build/perfbench, runs one workload and re-checks its result.
Run from the repository root:

  python3 perfbench/run.py --workload sync-femnist-cnn --seed 1 --seconds 20 --trace 0

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. Lines starting with "meta"
record the workload, the seed, the host (nproc, client-pool and kernel-pool
threads) and, in a git checkout, the revision.

Steadiness mode: --repeat N runs the workload N times in fresh processes,
with seeds seed, seed+1, ..., and prints the median, the quartiles and the
quartile spread (as a share of the median) of every metric.

--tiny shrinks every workload (used by perfbench/selftest.py).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_e2e"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 1


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources not found at %s; run from a full checkout" % (ROOT / "src"))
    if not (BUILD / "CMakeCache.txt").is_file():
        if run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_quiet(["cmake", "--build", str(BUILD), "--target", "perfbench_e2e",
                  "-j", jobs], BUILD_TIMEOUT_S) != 0:
        fail("build failed")


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def parse_result(line):
    """Validates the harness's last line; returns the parsed object or None."""
    try:
        res = json.loads(line)
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != RESULT_KEYS:
        return None
    if not isinstance(res["correct"], bool) or not isinstance(res["metrics"], dict):
        return None
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool) or res[key] < 0:
            return None
    if res["attempted"] < 1:
        return None
    for m in res["metrics"].values():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            return None
        if not isinstance(m["value"], (int, float)) or not isinstance(m["unit"], str):
            return None
    return res


def run_once(args, seed, echo=True):
    """Runs the harness once; returns its parsed result line."""
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        fail("harness exited with code %d" % proc.returncode)
    res = parse_result(lines[-1])
    if res is None:
        fail("harness printed no valid result line")
    if echo:
        print("\n".join(lines[:-1]))
    return res


def repeat(args):
    per_metric = {}
    units = {}
    failed = 0
    for i in range(args.repeat):
        seed = args.seed + i
        res = run_once(args, seed, echo=False)
        failed += 0 if res["correct"] and res["failed"] == 0 else 1
        vals = {k: v["value"] for k, v in res["metrics"].items()}
        print("seed %d: %s" % (seed, " ".join("%s=%.6g" % kv for kv in vals.items())),
              flush=True)
        for k, v in res["metrics"].items():
            per_metric.setdefault(k, []).append(v["value"])
            units[k] = v["unit"]
    print("\n%-40s %14s %14s %14s %9s" % ("metric", "median", "q1", "q3", "iqr/med"))
    for k, vals in per_metric.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print("%-40s %14.6g %14.6g %14.6g %8.2f%%  %s" % (k, med, q1, q3, 100 * spread,
                                                         units[k]))
    print("runs with failures: %d of %d" % (failed, args.repeat))
    return 0 if failed == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds positive")

    build()
    if args.repeat > 0:
        return repeat(args)
    res = run_once(args, args.seed)
    print("meta " + json.dumps({"git_rev": git_revision()}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
