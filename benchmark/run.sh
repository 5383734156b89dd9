#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the command. Run it from the repository root:
#
#   bash benchmark/run.sh --workload steady --seed 1 --seconds 16 --trace 0
#   bash benchmark/run.sh              # all five workloads
#   bash benchmark/run.sh -repeat      # the evidence for the bounds
#
# Everything it writes stays inside the checkout: the binary, the Go build
# cache and the toolchain's temporary files under .bench_build/, results and
# traces under benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/facile-benchmark" .
exec "$build/facile-benchmark" "$@"
