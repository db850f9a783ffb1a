#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from the source
# in this checkout into .bench_build/ (Go's build cache included, so
# nothing is written outside the checkout), then runs it from the
# checkout's root with the arguments given.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/frangipani-benchmark" .)
cd "$root"
exec "$build/frangipani-benchmark" "$@"
