#!/bin/bash
# Builds the benchmark from source and runs it, keeping every file the
# build writes (Go's build cache, its temp dir, the binary) under
# .bench_build/ in the checkout. Run from the root of the checkout:
#
#   bash bench/e2e/run.sh --workload fleet-young --seed 1 --seconds 20 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/e2e" ./bench/e2e
exec "$build/e2e" "$@"
