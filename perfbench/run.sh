#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload road-bsp --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, the generated inputs and
# the trace files.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd perfbench && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" "$@"
