#!/bin/sh
# Smoke pass: build, the full test suite (allocation gates included), the
# host-timing gates, then the whole figure pass at test size on two legs.
# Each leg writes the results file and prints its five simulated-data
# digests (figures, hybrid, load, shard, clock). The baseline's must equal
# the pinned line below, and the second leg's the baseline's. Host seconds
# and peak RSS sit outside those members.
#   baseline          BENCH_JOBS=1
#   placement         BENCH_JOBS=4: the worker count (figure points and
#                     shards alike) is a host knob and must never leak into
#                     the data
set -eu
cd "$(dirname "$0")/.."

# The five digests at --size test. A change that moves simulated results on
# purpose updates this line in the same diff.
pinned="digests: figures=92e7130873f15cf6 hybrid=c5434cdcc10c48b6 load=c4790b85da6f8213 shard=5108f28121d4cb64 clock=fa6724eb13004301"

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
if [ "$base" != "$pinned" ]; then
  echo "smoke: FAIL: baseline digests differ from the pinned line" >&2
  echo "smoke: pinned    $pinned" >&2
  exit 1
fi
got=$(digests BENCH_JOBS=4)
echo "smoke: placement $got"
if [ "$got" != "$base" ]; then
  echo "smoke: FAIL: placement digests differ from the baseline's" >&2
  exit 1
fi
echo "smoke: OK"
