#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny sizes, in seconds.

    python3 perfbench/smoke.py

Runs run.py --smoke for every workload in BENCHMARK.json, untraced and
traced at the default seed (pinned outputs) and untraced at another seed
(seed-independent checks), and requires each run to exit 0 with a result
line that names exactly the BENCHMARK.json metrics and units, all finite
and nonzero, with correct true and no failed operation. It then runs
run.py in a directory holding only BENCHMARK.json and the benchmark's
files, where it must fail without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, seed, trace, timeout=180):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def check_run(workload, seed, trace):
    """Problems with one smoke run, as a list of messages."""
    proc = run(ROOT, workload, seed, trace)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-1500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} "
                        f"failed={result.get('failed')}\n{proc.stderr[-1500:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        problems.append(f"metric names {sorted(metrics)}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')}")
        if not isinstance(value, (int, float)) or not math.isfinite(value) \
                or value == 0:
            problems.append(f"{m['name']}: value {value}")
    return problems


def check_bare_directory():
    """Without the repository sources, run.py must fail fast and print no
    result line."""
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    started = time.monotonic()
    proc = run(bare, SPEC["workloads"][0]["name"], 1, 0)
    elapsed = time.monotonic() - started
    shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("exited 0 without the sources")
    if any(line.startswith("{") for line in proc.stdout.splitlines()):
        problems.append("printed a result without the sources")
    if elapsed > 180:
        problems.append(f"took {elapsed:.0f} s to fail")
    return problems


def main():
    failures = 0
    cases = [(w["name"], seed, trace) for w in SPEC["workloads"]
             for seed, trace in ((1, 0), (1, 1), (2, 0))]
    for workload, seed, trace in cases:
        started = time.monotonic()
        problems = check_run(workload, seed, trace)
        status = "ok" if not problems else "FAIL"
        print(f"{status:4} {workload} seed {seed} trace {trace} "
              f"({time.monotonic() - started:.1f} s)")
        for problem in problems:
            print(f"     {problem}")
        failures += bool(problems)
    problems = check_bare_directory()
    print(f"{'ok' if not problems else 'FAIL':4} bare directory fails cleanly")
    for problem in problems:
        print(f"     {problem}")
    failures += bool(problems)
    print(f"{len(cases) + 1 - failures}/{len(cases) + 1} smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
