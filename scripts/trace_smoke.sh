#!/bin/sh
# trace-smoke: end-to-end check of the observability artifacts.
#
# Runs the §12 deadlock reproducer (a seeded dropped-wakeup fault) with the
# microarchitectural flight recorder armed, asserts the run fails AND the
# dump it leaves behind parses, is cycle-ordered, and covers the final K
# cycles before the watchdog trip (scripts/tracecheck validates the ring
# invariants from the outside). Then it runs a small real suite with span
# tracing on and asserts the Chrome trace carries the suite > run > phase
# span tree. Artifacts land in $TRACE_DIR (default: a temp dir) so CI can
# upload them for loading in Perfetto/Konata.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
out=${TRACE_DIR:-$tmp}
mkdir -p "$out"

echo "trace-smoke: building binaries"
$GO build -o "$tmp/bin/" ./cmd/conspec-sim ./cmd/conspec-bench

# The flight window must exceed the watchdog's no-progress limit so the
# dump reaches back past the silent tail to the wedge itself.
echo "trace-smoke: deadlock reproducer with flight recorder armed"
if "$tmp/bin/conspec-sim" -bench lbm -mech tpbuf -warmup 2000 -measure 5000 \
    -inject dropped-wakeup -inject-at 2000 \
    -flight-recorder 32768 -flight-out "$out/deadlock.flight.json" \
    >"$tmp/sim.out" 2>"$tmp/sim.err"; then
    echo "trace-smoke: dropped-wakeup run succeeded, expected a watchdog trip" >&2
    cat "$tmp/sim.out" "$tmp/sim.err" >&2
    exit 1
fi
grep -q "deadlock" "$tmp/sim.err" || {
    echo "trace-smoke: run failed for a reason other than deadlock:" >&2
    cat "$tmp/sim.err" >&2
    exit 1
}
$GO run ./scripts/tracecheck -flight "$out/deadlock.flight.json"

echo "trace-smoke: span-traced suite run"
"$tmp/bin/conspec-bench" -suite fig5 -benches astar -warmup 2000 -measure 4000 \
    -trace "$out/fig5.trace.json" >/dev/null 2>"$tmp/bench.err" || {
    echo "trace-smoke: traced bench run failed:" >&2
    cat "$tmp/bench.err" >&2
    exit 1
}
$GO run ./scripts/tracecheck -chrome "$out/fig5.trace.json" \
    "suite:fig5" "run:astar" "setup" "warmup" "measure"

echo "trace-smoke: OK (artifacts in $out)"
