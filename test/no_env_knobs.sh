#!/bin/sh
# lib/ and bin/ read one environment variable: BENCH_JOBS, the worker
# count (lib/harness/pool.ml). Every other setting is a flag or an option,
# so a command line describes its run. Fails on any other getenv, naming
# its file and line.
#   sh test/no_env_knobs.sh REPO_ROOT
cd "$1" || exit 1
bad=$(grep -rn --include='*.ml' --include='*.mli' 'getenv' lib bin |
  grep -v '^lib/harness/pool\.ml:[0-9]*: *match Sys\.getenv_opt "BENCH_JOBS" with$')
if [ -n "$bad" ]; then
  echo "no_env_knobs: only lib/harness/pool.ml may read the environment (BENCH_JOBS):" >&2
  echo "$bad" | sed 's/^/  /' >&2
  exit 1
fi
