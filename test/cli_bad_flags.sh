#!/bin/sh
# Every bad flag value must be refused with a message and exit code 1,
# never an uncaught exception (cmdliner's exit 125).
#   sh test/cli_bad_flags.sh path/to/bin/main.exe
main=$1
status=0
check() {
  "$main" "$@" >/dev/null 2>&1
  code=$?
  if [ "$code" -ne 1 ]; then
    echo "cli_bad_flags: exit $code (want 1): $*" >&2
    status=1
  fi
}
check run -w cg -m nosuch
check run -w cg -s nosuch
check run -w cg --size xx
check run -w cg --yield-points bogus
check run -w cg --clock bogus
check run -w cg --subscription bogus
check run -w webrick --arrivals nosuch
check run -w webrick --arrivals poisson --offered-load 0
check run -w webrick --arrivals burst --offered-load=-1
check run -w webrick --arrivals burst:0
check run -w webrick --arrivals burst:-3
check run -w webrick --arrivals poisson --shards 2 --policy bogus
check exec "$0" -m nosuch
check exec "$0" -s nosuch
check fig fig4 --size xx
exit $status
