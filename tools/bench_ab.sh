#!/usr/bin/env bash
# Runs the gated bench filters of two builds interleaved on one machine
# (base, head, base, head), so a comparison measures the change and not
# the machine or its drift over time.
#
# Usage: tools/bench_ab.sh BASE_BENCH_DIR HEAD_BENCH_DIR OUT_DIR
#   *_BENCH_DIR  a build's bench/ directory (holding bench_ctrl, ...)
#   OUT_DIR      receives OUT_DIR/{base,head}/round{1,2}/BENCH_*.json
#
# Then gate the ratio with
#   tools/bench_compare.py --baseline-dir OUT_DIR/base --current-dir OUT_DIR/head
# which takes the fastest round of each benchmark on each side.
set -euo pipefail

if [ $# -ne 3 ]; then
  sed -n '2,12p' "$0" >&2
  exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)

run_side() {  # $1 = bench dir, $2 = output dir
  mkdir -p "$2"
  (
    cd "$1"
    export ZEN_BENCH_NO_METRICS=1
    ./bench_ctrl \
      --benchmark_filter='BM_ProactiveRecompute|BM_ReactiveFlowSetupRate' \
      --benchmark_min_time=0.05
    ./bench_paths --benchmark_filter='BM_PathEngine' \
      --benchmark_min_time=0.05
    ./bench_e2e \
      --benchmark_filter='BM_SimulatorPacketRate|BM_ParallelPacketRate'
    ./bench_diag --benchmark_filter='BM_ExplainTrace' \
      --benchmark_min_time=0.05
    ./bench_openflow --benchmark_filter='BM_SouthboundEncodeThroughput' \
      --benchmark_min_time=0.05
  )
  mv "$1"/BENCH_*.json "$2"/
}

for r in 1 2; do
  run_side "$base" "$out/base/round$r"
  run_side "$head" "$out/head/round$r"
done
