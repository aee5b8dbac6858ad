#!/bin/sh
# Build the benchmark from source in this checkout, then run it:
#   sh perfbench/run.sh --workload <name> --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to stderr and _build/.
set -eu
export DUNE_CACHE=disabled
dune build --root . ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
