#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the Go
# toolchain writes (build cache, temporary files, the binary) inside the
# checkout, under .bench_build/. Run it from the root of a checkout:
#
#   bash benchmark/run.sh --workload sched_miss_10k --seed 1 --seconds 10 --trace 0
#
# Outside a checkout (no go.mod above benchmark/) the build fails and so does
# the script.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=

go build -o "$build/integrade-benchmark" ./benchmark
exec "$build/integrade-benchmark" "$@"
