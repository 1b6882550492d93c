#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Run it
# from the root of a checkout:
#
#   bash perfbench/run.sh --workload touch --seed 1 --seconds 10 --trace 0
#
# Every build artifact, cache and scratch file stays under .bench_build/.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
