#!/bin/sh
# Smoke pass: build, full test suite, the Gc allocation gates, then a quick
# figure regeneration on three legs. Every leg's five simulated-data digests
# (figures, hybrid, load, shard, clock) must equal the baseline leg's; host
# wall times live outside those members and may legitimately differ.
#   baseline          SHARDS=1 BENCH_JOBS=1
#   placement         SHARDS=4 BENCH_JOBS=4: worker and shard-domain counts
#                     are host knobs and must never leak into the data
#   BENCH_SCHED=ref   the heap scheduler must match the reference scan
# The last two legs run with SHARDS=4 BENCH_JOBS=4.
set -eu
cd "$(dirname "$0")/.."

dune build
dune runtest

# allocation gates: transactional accesses and the interpreter step loops
# must stay allocation-free in steady state
dune exec bench/main.exe -- gates

# Regenerate the figures under the given environment and print the
# validated "digests: member=hex ..." line.
digests() {
  env BENCH_SIZE=test "$@" dune exec bench/main.exe -- figures >&2
  dune exec bench/main.exe -- validate BENCH_results.json | grep '^digests:'
}

base=$(digests SHARDS=1 BENCH_JOBS=1)
case "$base" in
*" figures="*" hybrid="*" load="*" shard="*" clock="*) ;;
*) echo "smoke: FAIL: baseline: incomplete digests: $base" >&2; exit 1 ;;
esac
echo "smoke: baseline $base"

leg() {
  name=$1
  shift
  got=$(digests SHARDS=4 BENCH_JOBS=4 "$@")
  for m in ${base#digests:}; do
    case "$got " in
    *" $m "*) ;;
    *) echo "smoke: FAIL: $name: ${m%%=*} differs from baseline ($m; $got)" >&2
       exit 1 ;;
    esac
  done
  echo "smoke: $name: all five digests identical to baseline"
}

leg placement
leg BENCH_SCHED=ref BENCH_SCHED=ref

echo "smoke: OK"
