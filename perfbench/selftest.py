#!/usr/bin/env python3
"""Self-test of the whole-round benchmark. Run from the repository root:

  python3 perfbench/selftest.py

Checks, at tiny sizes (about a minute once built):
  * BENCHMARK.json follows the benchmark contract (keys, names, units,
    bounds, a setup_s metric) and perfbench/layer_map.json maps every
    per-layer metric;
  * every workload, traced and untraced, prints a result line that parses,
    passes its output checks, and carries exactly the metrics BENCHMARK.json
    names, each with its unit; end-to-end values are nonzero;
  * without the library sources next to it, run.py fails fast and prints no
    result.
"""
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def expect(cond, msg):
    if not cond:
        failures.append(msg)
        print("FAIL: " + msg)


def check_spec(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json top-level keys")
    expect(spec["command"][:2] == ["python3", "perfbench/run.py"], "command")
    expect("perfbench" in spec["paths"], "paths names perfbench")
    expect(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
           "run_seconds in 1..60")
    expect(2 <= len(spec["workloads"]) <= 8, "2..8 workloads")
    names = []
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"}, "workload keys of %s" % w.get("name"))
        expect(len(w["why"]) <= 200 and "\n" not in w["why"], "why of %s" % w["name"])
        names.append(w["name"])
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"}, "keys of %s" % m["name"])
        expect(0 < m["bound"] <= 0.25, "bound of %s" % m["name"])
        names.append(m["name"])
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, "keys of %s" % m["name"])
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(UNIT.match(m["unit"]) is not None, "unit of %s" % m["name"])
        expect(m["better"] in ("higher", "lower"), "better of %s" % m["name"])
    expect(all(NAME.match(n) for n in names), "name syntax")
    expect(len(names) == len(set(names)), "names are unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
           "setup_s metric")
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    expect(set(layer_map["layers"]) == {m["name"] for m in spec["per_layer"]},
           "layer_map.json covers exactly the per-layer metrics")
    expect(set(layer_map["workloads"]) == {w["name"] for w in spec["workloads"]},
           "layer_map.json describes every workload")


def check_run(spec, workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    tag = "%s trace=%d" % (workload, trace)
    expect(proc.returncode == 0, tag + ": exit code %d" % proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    res = run.parse_result(lines[-1])
    expect(res is not None, tag + ": result line parses")
    if res is None:
        print(proc.stderr[-2000:])
        return
    expect(res["correct"] and res["failed"] == 0, tag + ": output checks pass")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    expect(set(res["metrics"]) == {m["name"] for m in wanted}, tag + ": metric names")
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None:
            continue
        expect(got["unit"] == m["unit"], tag + ": unit of " + m["name"])
        expect(math.isfinite(got["value"]), tag + ": finite " + m["name"])
        if not trace:
            expect(got["value"] != 0, tag + ": nonzero " + m["name"])
    expect(any(line.startswith("meta {") for line in lines), tag + ": meta line")
    print("ok: " + tag)


def check_bare_directory():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "sync-femnist-cnn", "--seed", "1", "--seconds", "1", "--trace",
                           "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    expect(proc.returncode != 0 and run.parse_result(last) is None,
           "run.py fails without the library sources")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok: bare directory fails fast")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    run.build()
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_bare_directory()
    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
