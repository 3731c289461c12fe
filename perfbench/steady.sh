#!/usr/bin/env bash
# Runs the benchmark once per seed on each workload and prints, per
# workload, every metric's median, quartiles and spread (the distance
# between the quartiles as a share of the median):
#
#   bash perfbench/steady.sh [runs=10] [trace=0] [seconds=30] [workload...]
#
# Run it from the root of a checkout. Result lines are kept in
# .bench_build/steady/<workload>.jsonl.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
runs=${1:-10}
trace=${2:-0}
seconds=${3:-30}
shift $(( $# < 3 ? $# : 3 ))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(fuse-seqread kern-overload danaus-seqwrite)
fi

out="$root/.bench_build/steady"
mkdir -p "$out"
for w in "${workloads[@]}"; do
  : > "$out/$w.jsonl"
  for i in $(seq 1 "$runs"); do
    bash "$bench_dir/run.sh" --workload "$w" --seed $((100 + i)) --seconds "$seconds" --trace "$trace" \
      | tail -n 1 >> "$out/$w.jsonl"
  done
  echo "== $w"
  "$root/.bench_build/perfbench" -summarize < "$out/$w.jsonl"
done
