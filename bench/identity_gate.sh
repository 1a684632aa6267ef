#!/usr/bin/env bash
# Byte-identity gate: a parent commit against a change, on one host.
#
#     bench/identity_gate.sh PARENT_DIR CHANGE_DIR
#
# Both arguments are source checkouts (the same one twice is an A/A run).
# The gate builds bin/adsm_run.exe and bench/main.exe in each tree, runs
# the same fixed grid of cells in both, and compares a sha256 of every
# output a cell leaves: its stdout, stderr and exit code, and for traced
# cells the JSONL trace and the trace without its `sim-events` lines
# (those are stamped every 64 engine events, so they alone move when a
# change legitimately reorders same-instant events).  The grid:
#
#   - run -n 8 --trace, 8 apps x MW/SW/WFS/WFS+WG/HLRC, default scale;
#   - the same 40 cells as run -n 4 --tiny --check, and as
#     run -n 8 --tiny --topology tree:2;
#   - run -n 512 --tiny --topology tree --trace, IS x WFS/SW (the
#     metadata-bound lock path at scale; --topology sets only the
#     fabric, so their barrier is the one-level central one);
#   - run -a Water -p WFS -n 256 --tiny --topology tree (the cell where
#     the false-sharing check reads the most notice clocks from the
#     interval store);
#   - run -a SOR -p MW -n 1024 --tiny --topology tree (16 rows over 1024
#     nodes: most nodes have no rows, as in perfbench's n1024);
#   - survive --tiny at 4 and 8 nodes, and survive -n 8 at default
#     scale (crashes across GC rounds and fetched-diff drops; it exits 1
#     on both sides with its two SOR/MW ABORT rows);
#   - scaling --tiny --max-nodes 256 (combining barrier, sharded lock
#     homes and sparse clocks at up to 256 nodes);
#   - scaling --apps IS --max-nodes 512, which holds perfbench's is512
#     cells (IS on a 512-node tree fabric with the combining barrier);
#   - run -n 64 --tiny --topology tree --check under two crashes, IS and
#     Water x MW/SW/WFS/WFS+WG (recovery rounds at a width where
#     writer maps are sparse, checked by the oracle);
#   - fuzz, 30 seeds from seed 1 at 4 and 8 nodes for every protocol,
#     with and without --faults, plus the two recovery mutations as CI's
#     fault-smoke job runs them;
#   - bench/main.exe at default scale (every paper artifact).
#
# A cell whose outputs differ fails the gate unless its name is listed in
# CHANGE_DIR/bench/identity_moves (one name a line, `#` comments); a
# listed cell that does not move also fails.  Cells run two at a time
# through `xargs -P 2`, each under `timeout 600`: a cell that hangs
# records exit code 124 instead of stalling the gate, and so moves
# unless the parent hangs in it too.  Results go to
# CHANGE_DIR/.identity_gate/: per-side cell directories, digests.txt per
# side, and moved.txt.

set -euo pipefail

# --- worker: run one cell --------------------------------------------
# __cell BIN_DIR SIDE_DIR "NAME PROG ARGS..."; PROG is adsm or main.
if [ "${1:-}" = __cell ]; then
  bin=$2 side_dir=$3
  read -r -a words <<< "$4"
  name=${words[0]} prog=${words[1]}
  case $prog in
    adsm) exe=$bin/bin/adsm_run.exe ;;
    main) exe=$bin/bench/main.exe ;;
    *) echo "identity-gate: unknown program $prog in cell $name" >&2; exit 2 ;;
  esac
  dir=$side_dir/$name
  rm -rf "$dir"
  mkdir -p "$dir"
  cd "$dir"
  rc=0
  timeout 600 "$exe" "${words[@]:2}" > stdout 2> stderr || rc=$?
  echo "$rc" > exit
  if [ -f trace.jsonl ]; then
    grep -v '"ev":"sim-events"' trace.jsonl > trace-no-sim-events.jsonl || true
  fi
  exit 0
fi

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR" >&2
  exit 2
fi
self=$(cd "$(dirname "$0")" && pwd)/$(basename "$0")
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
out="$change/.identity_gate"
rm -rf "$out"
mkdir -p "$out"

APPS="SOR TSP Water Barnes IS 3D-FFT Shallow ILINK"
PROTOCOLS="MW SW WFS WFS+WG HLRC"

grid() {
  for app in $APPS; do
    for p in $PROTOCOLS; do
      echo "run-$app-$p adsm run -a $app -p $p -n 8 --trace trace.jsonl"
      echo "check-$app-$p adsm run -a $app -p $p -n 4 --tiny --check"
      echo "tree-$app-$p adsm run -a $app -p $p -n 8 --tiny --topology tree:2"
    done
  done
  for p in WFS SW; do
    echo "is512-$p adsm run -a IS -p $p -n 512 --tiny --topology tree --trace trace.jsonl"
  done
  echo "water256-WFS adsm run -a Water -p WFS -n 256 --tiny --topology tree"
  echo "sor1024-MW adsm run -a SOR -p MW -n 1024 --tiny --topology tree"
  echo "survive-n4 adsm survive --tiny -n 4 --jobs 1"
  echo "survive-n8 adsm survive --tiny -n 8 --jobs 1"
  echo "survive-n8-default adsm survive -n 8 --jobs 1"
  echo "scaling adsm scaling --tiny --max-nodes 256 --jobs 1"
  echo "scaling-is512 adsm scaling --apps IS --max-nodes 512 --jobs 1" \
    "--out scaling.json"
  for app in IS Water; do
    for p in MW SW WFS WFS+WG; do
      echo "crash64-$app-$p adsm run -a $app -p $p -n 64 --tiny --topology" \
        "tree --check --faults crash=5@300ms:50ms;crash=40@600ms:50ms"
    done
  done
  for p in $PROTOCOLS; do
    for n in 4 8; do
      echo "fuzz-$p-n$n adsm fuzz -p $p -n $n --seeds 30 --seed 1 --jobs 1"
      echo "fuzz-faults-$p-n$n adsm fuzz --faults -p $p -n $n --seeds 30 --seed 1 --jobs 1"
    done
  done
  echo "mutation-skip-notice-replay adsm fuzz --mutation skip-notice-replay" \
    "--faults --protocol MW --procs 4 --seeds 10 --seed 1 --jobs 2"
  echo "mutation-stale-vc-after-restart adsm fuzz --mutation" \
    "stale-vc-after-restart --faults --protocol MW --procs 4 --seeds 5" \
    "--seed 20 --jobs 2"
  echo "bench-main main"
}

grid > "$out/grid.txt"
cells=$(wc -l < "$out/grid.txt")

for side in parent change; do
  if [ "$side" = parent ]; then tree=$parent; else tree=$change; fi
  bin="$out/build-$side/default"
  t0=$(date +%s)
  if ! dune build --root "$tree" --build-dir "$out/build-$side" \
         --profile release bin/adsm_run.exe bench/main.exe \
         > "$out/build-$side.log" 2>&1; then
    tail -n 20 "$out/build-$side.log" >&2
    echo "identity-gate: $side build failed" >&2
    exit 1
  fi
  t1=$(date +%s)
  xargs -d '\n' -P 2 -I{} bash "$self" __cell "$bin" "$out/$side" {} \
    < "$out/grid.txt"
  t2=$(date +%s)
  (cd "$out/$side" && find . -type f | sort | xargs sha256sum) \
    > "$out/digests-$side.txt"
  echo "$side: built in $((t1 - t0)) s, $cells cells in $((t2 - t1)) s" \
    "at -P 2, $(wc -l < "$out/digests-$side.txt") outputs"
done

# A cell moves when any of its outputs differs or exists on one side
# only: the first path component of every such output.
diff <(awk '{print $2, $1}' "$out/digests-parent.txt") \
     <(awk '{print $2, $1}' "$out/digests-change.txt") \
  | sed -n 's|^[<>] \./\([^/]*\)/.*|\1|p' | sort -u > "$out/moved.txt" || true
moves="$change/bench/identity_moves"
if [ -f "$moves" ]; then
  sed 's/#.*//; s/[[:space:]]//g; /^$/d' "$moves" | sort -u
fi > "$out/declared.txt"

status=0
undeclared=$(comm -23 "$out/moved.txt" "$out/declared.txt")
missing=$(comm -13 "$out/moved.txt" "$out/declared.txt")
if [ -n "$undeclared" ]; then
  echo "identity-gate: cells moved without a line in bench/identity_moves:" >&2
  echo "$undeclared" | sed 's/^/  /' >&2
  status=1
fi
if [ -n "$missing" ]; then
  echo "identity-gate: cells declared in bench/identity_moves did not move:" >&2
  echo "$missing" | sed 's/^/  /' >&2
  status=1
fi
echo "identity-gate: $cells cells, $(wc -l < "$out/moved.txt") moved," \
  "$(wc -l < "$out/declared.txt") declared"
exit $status
