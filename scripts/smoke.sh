#!/bin/sh
# Smoke pass: build, the full test suite (allocation gates included), the
# host-timing gates, then the whole figure pass at test size on two legs.
# Each leg writes the results file and prints its five simulated-data
# digests (figures, hybrid, load, shard, clock); the second leg's must equal
# the baseline's. Host seconds and peak RSS sit outside those members.
#   baseline          BENCH_JOBS=1
#   placement         BENCH_JOBS=4: the worker count (figure points and
#                     shards alike) is a host knob and must never leak into
#                     the data
set -eu
cd "$(dirname "$0")/.."

dune build
dune runtest
dune exec test/timing/timing.exe

# Regenerate every figure family under the given environment, then check
# the results file and print its "digests: member=hex ..." line.
digests() {
  env "$@" dune exec bin/main.exe -- fig all --size test \
    --json BENCH_results.json >&2 &&
    dune exec bin/main.exe -- digests BENCH_results.json
}

base=$(digests BENCH_JOBS=1)
echo "smoke: baseline  $base"
got=$(digests BENCH_JOBS=4)
echo "smoke: placement $got"
if [ "$got" != "$base" ]; then
  echo "smoke: FAIL: placement digests differ from the baseline's" >&2
  exit 1
fi
echo "smoke: OK"
