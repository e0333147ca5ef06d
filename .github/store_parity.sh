#!/usr/bin/env bash
# Stored-basis parity between two builds.
#
# Runs each build's specpart_loadgen over the same workload into a fresh
# tier-2 cache directory (--requests 40 --workers 4 --cache-dir DIR) under
# three flag sets: the defaults, --solver-strategy multilevel and
# --objective normalized, each at SPECPART_THREADS=1 and =4. Then compares
# every .eb file name found in both stores with cmp and prints the common
# and differing counts per run. The same name with different bytes fails:
# the arithmetic moved without a cache-key change, so a store written by
# one build would serve bases the other would not compute. A name found
# in only one store passes; that is how a deliberate key change shows up.
#
# Usage: .github/store_parity.sh PARENT_BUILD CHANGE_BUILD
# (each a CMake build directory holding examples/specpart_loadgen).
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent=$1
change=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

status=0
run=0
for threads in 1 4; do
  for flags in "" "--solver-strategy multilevel" "--objective normalized"; do
    run=$((run + 1))
    for side in parent change; do
      if [ "$side" = parent ]; then build=$parent; else build=$change; fi
      # $flags is unquoted on purpose: it splits into separate arguments.
      if ! SPECPART_THREADS=$threads "$build/examples/specpart_loadgen" \
          --requests 40 --workers 4 $flags \
          --cache-dir "$work/$side$run" > "$work/$side$run.log" 2>&1; then
        cat "$work/$side$run.log"
        echo "store_parity: $side loadgen failed (threads=$threads" \
             "flags='$flags')" >&2
        exit 1
      fi
    done
    common=0
    differing=0
    for f in "$work/parent$run"/*.eb; do
      [ -e "$f" ] || continue
      other="$work/change$run/$(basename "$f")"
      [ -e "$other" ] || continue
      common=$((common + 1))
      if ! cmp -s "$f" "$other"; then
        differing=$((differing + 1))
        echo "  differs: $(basename "$f")"
      fi
    done
    echo "threads=$threads flags='${flags:-default}':" \
         "$common common, $differing differing"
    if [ "$differing" -ne 0 ]; then status=1; fi
  done
done
exit $status
