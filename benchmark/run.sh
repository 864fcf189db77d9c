#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source into
# .bench_build (Go's build cache is kept there too, so nothing is read or
# written outside the checkout) and run it with the driver's arguments.
set -euo pipefail
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOFLAGS=-buildvcs=false
go build -o .bench_build/benchmark ./benchmark
BENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || true) exec .bench_build/benchmark "$@"
