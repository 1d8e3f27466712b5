#!/usr/bin/env bash
# Builds the benchmark program from source and runs it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload analytic-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache, the
# binary, data directories, span files) goes under .bench_build/ in the
# checkout, so the run reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOPROXY=off GOTOOLCHAIN=local \
	GOENV=off GOWORK=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -work "$build/work" "$@"
