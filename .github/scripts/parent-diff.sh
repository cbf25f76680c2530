#!/usr/bin/env bash
# Diffs the benchmark's counts against the parent commit. Runs every
# workload for 2 s, untraced, in two checkouts (each builds its own
# bench/.build/), compares the two result sets with `bench/run.sh diff`, and
# fails only on a `worse` row of a gated count: rpcs_per_op, wire_kb_per_op,
# log_kb_per_op or fsyncs_per_op. A row is `worse` only when the count grew
# by more than bench's bound for it (bench/metrics.go: 10 % for rpcs, wire
# and fsyncs, 5 % for log), so a smaller regression passes. Those counts
# move by about 1 % or less from run to run (most repeat to the digit), so
# one run a side settles them; every other row (setup_s, allocs, heap, the
# clock metrics) is printed as advisory. A run whose oracle fails fails the
# script too.
#
#   parent-diff.sh BASE_CHECKOUT NEW_CHECKOUT OUT_DIR
#
# CI checks HEAD^ out beside HEAD with `git worktree add` and passes both.
set -euo pipefail
if [ $# -ne 3 ]; then
  echo "usage: $0 BASE_CHECKOUT NEW_CHECKOUT OUT_DIR" >&2
  exit 2
fi
base="$(cd "$1" && pwd)" new="$(cd "$2" && pwd)"
mkdir -p "$3"
out="$(cd "$3" && pwd)"
workloads="t1_hot t1_cold t1_paging t2b_update mc_mix cluster_commit"
gated='^(rpcs_per_op|wire_kb_per_op|log_kb_per_op|fsyncs_per_op)$'

for side in base new; do
  dir="$base"
  [ "$side" = new ] && dir="$new"
  mkdir -p "$out/$side"
  for w in $workloads; do
    echo "== $side: $w"
    run="$(cd "$dir" && bash bench/run.sh --workload "$w" --seconds 2 --trace 0 --out "$out/data-$side")"
    # bench diff reads result sets: the clock metrics come from the
    # "  name value unit" lines, the gated ones from the last line, the
    # driver's JSON, at full precision.
    clock="$(awk 'NF == 3 && $1 ~ /^[a-z0-9_]+$/ && $2 ~ /^-?[0-9.]+$/ { print "\"" $1 "\": " $2 }' <<<"$run" | paste -sd, -)"
    tail -n 1 <<<"$run" | jq -c --arg w "$w" --argjson clock "{$clock}" '[{workload: $w, traced: false, correct, attempted,
      failed, metrics: ($clock + (.metrics | map_values(.value)))}]' >"$out/$side/$w.json"
  done
done

status=0
(cd "$new" && bash bench/run.sh diff "$out/base" "$out/new") >"$out/diff.txt" || status=$?
cat "$out/diff.txt"
if [ "$status" -gt 1 ]; then
  exit "$status"
fi
# Columns: workload, metric, base, new, worse by, bound, verdict.
worse="$(awk -v g="$gated" '$2 ~ g && ($NF == "worse" || /missing on one side/)' "$out/diff.txt")"
if [ -n "$worse" ]; then
  echo
  echo "gated counts worse than at the parent commit by more than their bound:"
  echo "$worse"
  exit 1
fi
echo
echo "no gated count is worse than at the parent commit by more than its bound (other rows are advisory)"
