#!/bin/sh
# Bad input must be refused with a message and a documented exit code,
# never an uncaught exception (cmdliner's exit 125):
#   1  a bad flag value, flags that cannot apply together, or an
#      unreadable or incomplete results file
#   2  guest source that does not lex, parse or compile
#   3  a guest error
#   4  a stuck guest (deadlock)
#   sh test/cli_bad_input.sh path/to/bin/main.exe
main=$1
status=0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# check CODE MESSAGE ARGS...: the command exits CODE and its stderr
# contains MESSAGE
check() {
  want=$1 msg=$2
  shift 2
  "$main" "$@" >/dev/null 2>"$tmp/err"
  code=$?
  if [ "$code" -ne "$want" ] || ! { [ -z "$msg" ] || grep -qF -- "$msg" "$tmp/err"; }; then
    echo "cli_bad_input: exit $code (want $want, \"$msg\"): $*" >&2
    sed 's/^/  /' "$tmp/err" >&2
    status=1
  fi
}
check 1 "" run -w cg -m nosuch
check 1 "" run -w cg -s nosuch
check 1 "" run -w cg --size xx
check 1 "" run -w cg --yield-points bogus
check 1 "" run -w cg --clock bogus
check 1 "" run -w cg --subscription bogus
check 1 "" run -w webrick --arrivals nosuch
check 1 "" run -w webrick --arrivals poisson --offered-load 0
check 1 "" run -w webrick --arrivals burst --offered-load=-1
check 1 "" run -w webrick --arrivals burst:0
check 1 "" run -w webrick --arrivals burst:-3
check 1 "-t 0: must be at least 1" run -w cg -t 0 --size test
check 1 "-t 0: must be at least 1" run -w webrick -t 0
check 1 "--shards -2: must be at least 0" run -w webrick --arrivals poisson --shards=-2
# flags that cannot apply are refused, never dropped
sharded="run -w webrick --arrivals poisson --size test --shards 2"
check 1 "--trace does not apply with --shards" $sharded --trace
check 1 "--trace-out does not apply with --shards" $sharded --trace-out "$tmp/t.json"
check 1 "--abort-report does not apply with --shards" $sharded --abort-report
check 1 "--metrics-json does not apply with --shards" $sharded --metrics-json "$tmp/m.json"
check 1 "--latency-json does not apply with --shards" $sharded --latency-json "$tmp/l.json"
check 1 "--shared-session needs --shards" run -w webrick --arrivals poisson --shared-session
check 1 "--mix: workload cg has no request mix" run -w cg --mix
check 1 "--latency-json only applies to server workloads" run -w cg --latency-json "$tmp/l.json"
check 1 "--offered-load needs open-loop arrivals" run -w webrick --offered-load 9000
check 1 "" exec "$0" -m nosuch
check 1 "" exec "$0" -s nosuch
check 1 "" fig fig4 --size xx

# guest programs: the line is the user's, not the prelude's
printf 'puts 1\nx = ' >"$tmp/parse.rb"
printf 'puts 1\nfoo_undefined(2)\n' >"$tmp/guest.rb"
printf 'm = Mutex.new\nm.lock\nt = Thread.new { m.lock }\nt.join\n' \
  >"$tmp/stuck.rb"
check 2 "$tmp/parse.rb:2: unexpected token" exec "$tmp/parse.rb"
# a bare sigil names no variable
printf 'x = @@\nputs x.inspect\n' >"$tmp/cvar.rb"
printf 'x = @\nputs x.inspect\n' >"$tmp/ivar.rb"
printf 'x = $\nputs x.inspect\n' >"$tmp/gvar.rb"
check 2 "$tmp/cvar.rb:1: @@ with no variable name" exec "$tmp/cvar.rb"
check 2 "$tmp/ivar.rb:1: @ with no variable name" exec "$tmp/ivar.rb"
check 2 "$tmp/gvar.rb:1: \$ with no variable name" exec "$tmp/gvar.rb"
# an error inside #{...} reports the line the interpolation opens on
printf 'puts 1\nputs 2\nputs "a#{x +}b"\n' >"$tmp/interp.rb"
printf 'puts 1\nputs 2\nputs "a#{x @@ }b"\n' >"$tmp/interp_sigil.rb"
check 2 "$tmp/interp.rb:3: unexpected token end of input" exec "$tmp/interp.rb"
check 2 "$tmp/interp_sigil.rb:3: @@ with no variable name" \
  exec "$tmp/interp_sigil.rb"
check 3 "undefined method 'foo_undefined'" exec "$tmp/guest.rb"
check 4 "deadlock" exec "$tmp/stuck.rb"
# lazy-safe subscription runs on any machine
printf 'puts 1\n' >"$tmp/one.rb"
check 0 "" exec "$tmp/one.rb" --subscription lazy-safe

# results files: a complete one passes, each defect is named
series='"fig4":[],"fig5":[],"fig6a":[],"fig6b":{},"fig7":[],"fig8":[],"fig9":[]'
series="$series"',"ablation":[],"overhead":[],"future_work":[],"refcount":[]'
own='"hybrid":[],"load":[],"shard":[]'
printf '{"figures":{%s},%s,"clock":[]}' "$series" "$own" >"$tmp/ok.json"
check 0 "" digests "$tmp/ok.json"
check 1 "No such file" digests "$tmp/missing.json"
head -c 60 "$tmp/ok.json" >"$tmp/truncated.json"
check 1 "malformed JSON" digests "$tmp/truncated.json"
printf '{"figures":{%s},%s}' "$series" "$own" >"$tmp/noclock.json"
check 1 'no "clock" member' digests "$tmp/noclock.json"
printf '{"figures":{%s},%s,"clock":[]}' "$(echo "$series" | sed 's/"fig9":\[\],//')" \
  "$own" >"$tmp/nofig9.json"
check 1 'no "fig9" series' digests "$tmp/nofig9.json"
exit $status
