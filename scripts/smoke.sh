#!/bin/sh
# Smoke pass: build, full test suite, the Gc allocation gates, a quick
# figure regeneration under 1 and 4 worker domains, under both schedulers
# and under all three interpreter tiers (compiled superblocks — the
# default — plus the threaded and reference loops), and checks that every
# run's "figures" member is byte-identical (host wall times live outside that member and
# may legitimately differ). The sharded-serving panels additionally vary
# SHARDS (1 on the first leg, 4 on every other): shard-domain placement is
# a host knob and must never leak into the simulated data.
set -eu
cd "$(dirname "$0")/.."

dune build
dune runtest

# allocation gates: transactional accesses and the interpreter step loop
# must stay allocation-free in steady state
dune exec bench/main.exe -- gates

SHARDS=1 BENCH_SIZE=test BENCH_JOBS=1 dune exec bench/main.exe -- figures
v1=$(dune exec bench/main.exe -- validate BENCH_results.json)
d1=$(echo "$v1" | sed -n 's/^figures digest: //p')
h1=$(echo "$v1" | sed -n 's/^hybrid digest: //p')
l1=$(echo "$v1" | sed -n 's/^load digest: //p')
s1=$(echo "$v1" | sed -n 's/^shard digest: //p')
c1=$(echo "$v1" | sed -n 's/^clock digest: //p')

SHARDS=4 BENCH_SIZE=test BENCH_JOBS=4 dune exec bench/main.exe -- figures
v4=$(dune exec bench/main.exe -- validate BENCH_results.json)
d4=$(echo "$v4" | sed -n 's/^figures digest: //p')
h4=$(echo "$v4" | sed -n 's/^hybrid digest: //p')
l4=$(echo "$v4" | sed -n 's/^load digest: //p')
s4=$(echo "$v4" | sed -n 's/^shard digest: //p')
c4=$(echo "$v4" | sed -n 's/^clock digest: //p')

if [ -z "$d1" ] || [ "$d1" != "$d4" ]; then
  echo "smoke: FAIL: figures differ between BENCH_JOBS=1 ($d1) and BENCH_JOBS=4 ($d4)" >&2
  exit 1
fi
echo "smoke: figures identical across worker counts (digest $d1)"

# the hybrid fallback panel lives outside the "figures" member (its machine
# variant is not part of the paper's grid) and gets its own determinism check
if [ -z "$h1" ] || [ "$h1" != "$h4" ]; then
  echo "smoke: FAIL: hybrid panel differs between BENCH_JOBS=1 ($h1) and BENCH_JOBS=4 ($h4)" >&2
  exit 1
fi
echo "smoke: hybrid panel identical across worker counts (digest $h1)"

# the open-loop load panels also live outside "figures" and must be just as
# deterministic: the arrival schedule is a pure function of the seed
if [ -z "$l1" ] || [ "$l1" != "$l4" ]; then
  echo "smoke: FAIL: load panels differ between BENCH_JOBS=1 ($l1) and BENCH_JOBS=4 ($l4)" >&2
  exit 1
fi
echo "smoke: load panels identical across worker counts (digest $l1)"

# the sharded-serving panels must be byte-identical whether the N shards ran
# in one domain (SHARDS=1) or four (SHARDS=4): the merge is deterministic in
# shard order, so placement never shows in the data
if [ -z "$s1" ] || [ "$s1" != "$s4" ]; then
  echo "smoke: FAIL: shard panels differ between SHARDS=1 ($s1) and SHARDS=4 ($s4)" >&2
  exit 1
fi
echo "smoke: shard panels identical across shard-domain placements (digest $s1)"

# the commit-clock/subscription ablation panels (their own member, like
# hybrid/load/shard) must be just as placement- and job-count-blind
if [ -z "$c1" ] || [ "$c1" != "$c4" ]; then
  echo "smoke: FAIL: clock panels differ between BENCH_JOBS=1 ($c1) and BENCH_JOBS=4 ($c4)" >&2
  exit 1
fi
echo "smoke: clock panels identical across worker counts (digest $c1)"

# the event-driven scheduler must reproduce the reference linear scan's
# interleaving exactly: regenerate under BENCH_SCHED=ref and compare
SHARDS=4 BENCH_SCHED=ref BENCH_SIZE=test BENCH_JOBS=4 dune exec bench/main.exe -- figures
vref=$(dune exec bench/main.exe -- validate BENCH_results.json)
dref=$(echo "$vref" | sed -n 's/^figures digest: //p')
href=$(echo "$vref" | sed -n 's/^hybrid digest: //p')
lref=$(echo "$vref" | sed -n 's/^load digest: //p')
sref=$(echo "$vref" | sed -n 's/^shard digest: //p')
cref=$(echo "$vref" | sed -n 's/^clock digest: //p')

if [ -z "$dref" ] || [ "$d1" != "$dref" ]; then
  echo "smoke: FAIL: figures differ between heap ($d1) and reference ($dref) schedulers" >&2
  exit 1
fi
if [ -z "$href" ] || [ "$h1" != "$href" ]; then
  echo "smoke: FAIL: hybrid panel differs between heap ($h1) and reference ($href) schedulers" >&2
  exit 1
fi
if [ -z "$lref" ] || [ "$l1" != "$lref" ]; then
  echo "smoke: FAIL: load panels differ between heap ($l1) and reference ($lref) schedulers" >&2
  exit 1
fi
if [ -z "$sref" ] || [ "$s1" != "$sref" ]; then
  echo "smoke: FAIL: shard panels differ between heap ($s1) and reference ($sref) schedulers" >&2
  exit 1
fi
if [ -z "$cref" ] || [ "$c1" != "$cref" ]; then
  echo "smoke: FAIL: clock panels differ between heap ($c1) and reference ($cref) schedulers" >&2
  exit 1
fi
echo "smoke: figures identical across schedulers (digest $dref)"

# the compiled superblock tier (the default on the legs above) must
# reproduce the reference switch loop's runs exactly: regenerate under
# BENCH_INTERP=ref and compare
SHARDS=4 BENCH_INTERP=ref BENCH_SIZE=test BENCH_JOBS=4 dune exec bench/main.exe -- figures
viref=$(dune exec bench/main.exe -- validate BENCH_results.json)
diref=$(echo "$viref" | sed -n 's/^figures digest: //p')
hiref=$(echo "$viref" | sed -n 's/^hybrid digest: //p')
liref=$(echo "$viref" | sed -n 's/^load digest: //p')
siref=$(echo "$viref" | sed -n 's/^shard digest: //p')
ciref=$(echo "$viref" | sed -n 's/^clock digest: //p')

if [ -z "$diref" ] || [ "$d1" != "$diref" ]; then
  echo "smoke: FAIL: figures differ between compiled ($d1) and reference ($diref) interpreters" >&2
  exit 1
fi
if [ -z "$hiref" ] || [ "$h1" != "$hiref" ]; then
  echo "smoke: FAIL: hybrid panel differs between compiled ($h1) and reference ($hiref) interpreters" >&2
  exit 1
fi
if [ -z "$liref" ] || [ "$l1" != "$liref" ]; then
  echo "smoke: FAIL: load panels differ between compiled ($l1) and reference ($liref) interpreters" >&2
  exit 1
fi
if [ -z "$siref" ] || [ "$s1" != "$siref" ]; then
  echo "smoke: FAIL: shard panels differ between compiled ($s1) and reference ($siref) interpreters" >&2
  exit 1
fi
if [ -z "$ciref" ] || [ "$c1" != "$ciref" ]; then
  echo "smoke: FAIL: clock panels differ between compiled ($c1) and reference ($ciref) interpreters" >&2
  exit 1
fi
echo "smoke: figures identical across compiled/ref interpreters (digest $diref)"

# the middle tier: the pre-decoded threaded loop the compiled superblocks
# deoptimize into must hash identically too, so all three tiers agree
SHARDS=4 BENCH_INTERP=threaded BENCH_SIZE=test BENCH_JOBS=4 dune exec bench/main.exe -- figures
vthr=$(dune exec bench/main.exe -- validate BENCH_results.json)
dthr=$(echo "$vthr" | sed -n 's/^figures digest: //p')
hthr=$(echo "$vthr" | sed -n 's/^hybrid digest: //p')
lthr=$(echo "$vthr" | sed -n 's/^load digest: //p')
sthr=$(echo "$vthr" | sed -n 's/^shard digest: //p')
cthr=$(echo "$vthr" | sed -n 's/^clock digest: //p')

if [ -z "$dthr" ] || [ "$d1" != "$dthr" ]; then
  echo "smoke: FAIL: figures differ between compiled ($d1) and threaded ($dthr) interpreters" >&2
  exit 1
fi
if [ -z "$hthr" ] || [ "$h1" != "$hthr" ]; then
  echo "smoke: FAIL: hybrid panel differs between compiled ($h1) and threaded ($hthr) interpreters" >&2
  exit 1
fi
if [ -z "$lthr" ] || [ "$l1" != "$lthr" ]; then
  echo "smoke: FAIL: load panels differ between compiled ($l1) and threaded ($lthr) interpreters" >&2
  exit 1
fi
if [ -z "$sthr" ] || [ "$s1" != "$sthr" ]; then
  echo "smoke: FAIL: shard panels differ between compiled ($s1) and threaded ($sthr) interpreters" >&2
  exit 1
fi
if [ -z "$cthr" ] || [ "$c1" != "$cthr" ]; then
  echo "smoke: FAIL: clock panels differ between compiled ($c1) and threaded ($cthr) interpreters" >&2
  exit 1
fi
echo "smoke: figures identical across all three interpreter tiers (digest $dthr)"

echo "smoke: OK"
