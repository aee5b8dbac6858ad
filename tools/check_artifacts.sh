#!/bin/sh
# Artifact-drift gate: regenerate every deterministic experiment artifact
# in a temporary directory and compare its result payload with the
# BENCH_*.json committed at the repository root.
#
#   sh tools/check_artifacts.sh
#
# Covers `skybench run <id> --json` for the experiments below; each
# registry entry runs its CI configuration, so it writes the committed
# artifact's schema (BENCH_pingpong.json included) and applies its gates
# against a copy of bench/budgets.json.  `parallel` stays out: its
# speedup gate fails on hosts without real spare cores, and its verdict
# string is host-dependent.  The comparison is `jq -S '.result // .'`,
# so `host_seconds` (host wall-clock) is ignored and every simulated
# number must match exactly.  Exit 1 on any difference, naming the
# artifact and showing the diff.
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)

runs="table1 table2 fig2 fig7 fig8 table4 fig9 fig10 fig11 table5 table6
gadgets ablation monolithic tempmap scheduling ycsbmix web mesh overload
matrix chaos pingpong"

dune build ./bin/skybench.exe
sky="$root/_build/default/bin/skybench.exe"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bench"
cp bench/budgets.json "$tmp/bench/"

# Each command's own output goes to a log, shown only if it fails.
for id in $runs; do
  if ! (cd "$tmp" && "$sky" run "$id" --json >"$tmp/log" 2>&1); then
    cat "$tmp/log"
    echo "FAILED skybench run $id --json"
    exit 1
  fi
done

bad=0
checked=0
for id in $runs; do
  f="BENCH_$id.json"
  checked=$((checked + 1))
  if [ ! -f "$tmp/$f" ]; then
    echo "MISSING $f (not regenerated)"
    bad=$((bad + 1))
  elif ! jq -S '.result // .' "$f" >"$tmp/want" ||
    ! jq -S '.result // .' "$tmp/$f" >"$tmp/got"; then
    echo "UNPARSABLE $f"
    bad=$((bad + 1))
  elif ! diff -u "$tmp/want" "$tmp/got" >"$tmp/diff"; then
    echo "DRIFT $f (committed vs regenerated):"
    cat "$tmp/diff"
    bad=$((bad + 1))
  fi
done

echo "== $checked artifact(s) checked, $bad drifted =="
[ "$bad" -eq 0 ]
