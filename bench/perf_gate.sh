#!/usr/bin/env bash
# Paired performance gate: a parent commit against a change, on one host.
#
#     bench/perf_gate.sh PARENT_DIR CHANGE_DIR
#
# Both arguments are source checkouts (the same one twice is an A/A run).
# The gate has two parts; it exits 1 if either fails.
#
# 1. perfbench medians.  For seeds 1-5, each tree runs its own
#    perfbench/run.py on the n1024, paper8, is512 and crash8 workloads
#    for 5 s, the side that runs first alternating by seed.  is512 is the
#    workload where changes to the interval/clock metadata path show;
#    crash8 is the only one that runs crash recovery (clock rollback,
#    recovery rounds, interval-log and diff-store replay).  The change's
#    perfbench/compare.py then pairs the runs and exits 1 on any
#    `regressed` row, with the bounds of the change's BENCHMARK.json.
#    Any failed run (non-zero run.py exit) also fails the gate.
#
# 2. Worker-pool speedup, change only.  `bench/main.exe table4` collects
#    the default-scale 8-app x 4-protocol suite three times at --jobs 1
#    and three times at --jobs 2, alternating.  Every run must print the
#    same bytes, and on a host with at least two cores the --jobs 2
#    median wall time must beat the --jobs 1 median.
#
# Results (perfbench --out files and logs) go to CHANGE_DIR/.perf_gate/.

set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
out="$change/.perf_gate"
rm -rf "$out"
mkdir -p "$out"

SEEDS="1 2 3 4 5"
WORKLOADS="n1024 paper8 is512 crash8"
SECONDS_PER_RUN=5
SUITE_RUNS=3

# --- 1. perfbench, parent vs change ----------------------------------

bench() { # side workload seed
  local side=$1 workload=$2 seed=$3 tree
  if [ "$side" = parent ]; then tree=$parent; else tree=$change; fi
  local log="$out/$side-$workload-$seed.log"
  if ! (cd "$tree" && python3 perfbench/run.py --workload "$workload" \
          --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 \
          --out "$out/$side-$workload-$seed.json") > "$log" 2>&1; then
    tail -n 20 "$log" >&2
    echo "perf-gate: $side $workload seed $seed failed (log: $log)" >&2
    exit 1
  fi
  echo "  $side $workload seed $seed: wall_s" \
    "$(grep -o '"wall_s":{"value":[0-9.e+-]*' "$log" | sed 's/.*://')"
}

echo "perfbench: $WORKLOADS, seeds $SEEDS, ${SECONDS_PER_RUN} s per run"
for seed in $SEEDS; do
  if [ $((seed % 2)) = 1 ]; then order="change parent"; else order="parent change"; fi
  for workload in $WORKLOADS; do
    for side in $order; do
      bench "$side" "$workload" "$seed"
    done
  done
done

if ! python3 "$change/perfbench/compare.py" \
       "$out"/parent-*.json -- "$out"/change-*.json | tee "$out/compare.txt"; then
  echo "perf-gate: a perfbench metric regressed past its bound" >&2
  exit 1
fi

# --- 2. worker-pool speedup on the default-scale suite ---------------

# run.py built the change's perfbench into .bench_build (release
# profile, no shared cache); build the paper harness beside it.
DUNE_CACHE=disabled dune build --root "$change" --build-dir "$change/.bench_build" \
  --profile release bench/main.exe
main="$change/.bench_build/default/bench/main.exe"

suite() { # jobs run
  local t0 t1
  t0=$(date +%s%N)
  (cd "$change" && "$main" table4 --jobs "$1") > "$out/suite-j$1-$2.txt"
  t1=$(date +%s%N)
  echo $(( (t1 - t0) / 1000000 )) >> "$out/suite-j$1.ms"
  echo "  table4 --jobs $1 run $2: $(( (t1 - t0) / 1000000 )) ms"
}

median() { sort -n "$1" | sed -n "$(( (SUITE_RUNS + 1) / 2 ))p"; }

echo "pool: default-scale suite, ${SUITE_RUNS}x at --jobs 1 and 2, alternating"
for run in $(seq 1 "$SUITE_RUNS"); do
  if [ $((run % 2)) = 1 ]; then order="1 2"; else order="2 1"; fi
  for jobs in $order; do suite "$jobs" "$run"; done
done

for f in "$out"/suite-j*-*.txt; do
  if ! cmp -s "$out/suite-j1-1.txt" "$f"; then
    echo "perf-gate: $(basename "$f") differs from suite-j1-1.txt" >&2
    exit 1
  fi
done
seq_ms=$(median "$out/suite-j1.ms")
par_ms=$(median "$out/suite-j2.ms")
cores=$(nproc)
echo "pool: median --jobs 1 ${seq_ms} ms, --jobs 2 ${par_ms} ms, ${cores} cores, output identical"
if [ "$cores" -ge 2 ] && [ "$par_ms" -ge "$seq_ms" ]; then
  echo "perf-gate: --jobs 2 suite (${par_ms} ms) is not faster than --jobs 1 (${seq_ms} ms)" >&2
  exit 1
fi
