#!/usr/bin/env bash
# A/B benchmark capture robust to CPU-performance drift: run the OLD and
# NEW binary of each bench in alternating rounds, then keep, per
# benchmark, the fastest median across rounds (throttle noise only ever
# slows a round down, so min-of-medians converges on the machine's true
# speed for both sides under the same conditions). Odd rounds run OLD
# first and even rounds NEW first, so neither side always inherits the
# other's cache and frequency state.
#
# Usage: scripts/bench_ab.sh [--benchmark_filter=REGEX] OLD_BUILD_DIR
#          NEW_BUILD_DIR OLD_OUT NEW_OUT [rounds] [bench names...]
# Writes OLD_OUT/BENCH_<name>.json and NEW_OUT/BENCH_<name>.json. The
# filter, when given, is passed to every bench binary on both sides.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
filter=()
if [[ $# -gt 0 && $1 == --benchmark_filter=* ]]; then
  filter=("$1")
  shift
fi
old_build="$1"; new_build="$2"; old_out="$3"; new_out="$4"
rounds="${5:-3}"
shift 5 || shift $#
benches=("$@")
if [[ ${#benches[@]} -eq 0 ]]; then
  benches=(bench_sim bench_wormhole bench_equivalence)
fi

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT
mkdir -p "${old_out}" "${new_out}"

for bench in "${benches[@]}"; do
  for round in $(seq 1 "${rounds}"); do
    sides=(old new)
    (( round % 2 == 0 )) && sides=(new old)
    for side in "${sides[@]}"; do
      build_dir="${old_build}"; [[ ${side} == new ]] && build_dir="${new_build}"
      out="${tmp}/${bench}-${side}-${round}.json"
      echo "== ${bench} ${side} round ${round}"
      "${build_dir}/${bench}" ${filter[@]+"${filter[@]}"} \
        --benchmark_out="${out}" --benchmark_out_format=json \
        --benchmark_min_time=0.2 --benchmark_repetitions=5 \
        --benchmark_report_aggregates_only=true > /dev/null
    done
  done
  name="${bench#bench_}"
  python3 "${repo_root}/scripts/bench_merge_min.py" \
    "${old_out}/BENCH_${name}.json" "${tmp}/${bench}-old-"*.json
  python3 "${repo_root}/scripts/bench_merge_min.py" \
    "${new_out}/BENCH_${name}.json" "${tmp}/${bench}-new-"*.json
done
