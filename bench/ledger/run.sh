#!/usr/bin/env bash
# Build the ledger benchmark from source, then run it:
#   bash bench/ledger/run.sh --workload npb-htm --seed 1 --seconds 10 --trace 0
# Run from the root of a checkout. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail

root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: $root is not a checkout of the simulator (no dune-project or lib/)" >&2
  exit 2
fi
dune build --root . --cache=disabled bench/ledger/ledger.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe run "$@"
