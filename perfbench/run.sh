#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it:
#
#   bash perfbench/run.sh --workload fig5-sweep --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build output, the Go build cache and
# the benchmark's scratch files all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --dir "$out/run" "$@"
