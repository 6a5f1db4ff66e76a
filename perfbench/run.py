#!/usr/bin/env python3
"""Build and run the mineq benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from anywhere; paths resolve against the checkout that holds this
file. The first run builds the perfbench program and the mineq library from
the repository sources into .bench_build/ at the root of the checkout;
later runs only re-check that build. The program's output is passed
through, and its last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The metric names and
units are checked against BENCHMARK.json before the result is printed.
--workload all runs every workload of BENCHMARK.json in turn, one
process each, and prints one "RESULT <workload> {...}" line per workload.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
PROGRAM = BUILD / "perfbench"
# A run must finish within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_revision():
    """The git commit when the checkout is a git work tree, else a hash of
    the sources the benchmark builds (a plain checkout has no history)."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *(ROOT / "src").rglob("*"),
             *HERE.rglob("*")]
    for path in sorted(p for p in files if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build():
    """Configure once, then build the benchmark target (a no-op when current).
    A lock serialises concurrent runs in one checkout."""
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            print("perfbench: configuring and building (first run)",
                  file=sys.stderr)
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                      "--target", "perfbench"])
        with open(log_path, "w") as log:
            for step in steps:
                code = subprocess.run(step, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
                if code != 0:
                    break
    if code != 0:
        tail = log_path.read_text(errors="replace").splitlines()[-40:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"build failed (full log: {log_path})")


def check_result(line, trace):
    """The result line must name exactly BENCHMARK.json's metrics for this
    trace mode, with the same units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {units}")


def run_workload(workload, args):
    """Run one workload in its own process; returns its stdout
    lines, the last of them the validated result."""
    spans_dir = BUILD / "spans"
    spans_dir.mkdir(exist_ok=True)
    mode = "smoke-" if args.smoke else ""
    command = [str(PROGRAM), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--pins", str(HERE / "pins.txt"),
               "--revision", source_revision(), "--spans-out",
               str(spans_dir / f"{mode}{workload}-seed{args.seed}.json")]
    if args.smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    check_result(lines[-1], args.trace)
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every code path in seconds")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no mineq sources (CMakeLists.txt, src/)")
    build()

    if args.workload != "all":
        print("\n".join(run_workload(args.workload, args)), flush=True)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    clean = True
    for workload in (w["name"] for w in spec["workloads"]):
        lines = run_workload(workload, args)
        print("\n".join(lines[:-1]))
        print(f"RESULT {workload} {lines[-1]}", flush=True)
        result = json.loads(lines[-1])
        clean = clean and result["correct"] and result["failed"] == 0
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
