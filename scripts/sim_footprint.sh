#!/usr/bin/env bash
# The simulator's design-quality numbers from one configured and built
# tree: for each policy translation unit (src/sim/engine.cpp and
# src/sim/wormhole.cpp) its .text size, its run_policy instantiation
# count and its standalone compile time (median of 3 re-runs of the
# command in compile_commands.json), plus the src/sim line count
# (non-blank lines that do not start with //).
#
# Usage: scripts/sim_footprint.sh BUILD_DIR
# BUILD_DIR must hold compile_commands.json (the top-level CMakeLists.txt
# exports it) and the built object files.

set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
build="$(cd "$1" && pwd)"
repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
commands="${build}/compile_commands.json"
if [[ ! -f "${commands}" ]]; then
  echo "$0: ${commands} not found (configure the tree with CMake first)" >&2
  exit 1
fi

python3 - "${commands}" <<'EOF'
import json
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

entries = json.load(open(sys.argv[1]))
print(f"{'unit':<10} {'text_B':>8} {'run_policy':>10} {'compile_s':>10}")
total = 0
for unit in ("engine", "wormhole"):
    matches = [e for e in entries
               if e["file"].endswith(f"src/sim/{unit}.cpp")]
    if not matches:
        sys.exit(f"sim_footprint: no compile command for src/sim/{unit}.cpp")
    entry = matches[0]
    directory = Path(entry["directory"])
    argv = (shlex.split(entry["command"]) if "command" in entry
            else list(entry["arguments"]))
    obj = directory / argv[argv.index("-o") + 1]
    if not obj.is_file():
        sys.exit(f"sim_footprint: {obj} not built")
    text = int(subprocess.run(["size", str(obj)], capture_output=True,
                              text=True, check=True)
               .stdout.splitlines()[1].split()[0])
    symbols = subprocess.run(["nm", "-C", str(obj)], capture_output=True,
                             text=True, check=True).stdout.splitlines()
    instantiations = sum(1 for s in symbols
                         if "run_policy<" in s and ".cold" not in s)
    # The same command, writing to a temporary object and no dependency file.
    rerun, skip = [], False
    for arg in argv:
        if skip:
            skip = False
        elif arg in ("-o", "-MT", "-MF", "-MQ"):
            skip = True
        elif arg not in ("-MD", "-MMD"):
            rerun.append(arg)
    times = []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(3):
            start = time.perf_counter()
            subprocess.run(rerun + ["-o", str(Path(tmp) / "unit.o")],
                           cwd=directory, check=True)
            times.append(time.perf_counter() - start)
    total += text
    print(f"{unit:<10} {text:>8} {instantiations:>10} "
          f"{statistics.median(times):>10.2f}")
print(f"{'total':<10} {total:>8}")
EOF

lines=$(cat "${repo_root}"/src/sim/*.hpp "${repo_root}"/src/sim/*.cpp |
  grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//')
echo "src/sim lines (non-blank, not //): ${lines}"
