#!/usr/bin/env bash
# The command in BENCHMARK.json: `go run ./benchmark "$@"` from the checkout
# root, except that the program and Go's build cache go to .bench_build/
# there, because a driver's run may write nothing outside its checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go build -C "$root" -o .bench_build/taskbench ./benchmark
exec "$root/.bench_build/taskbench" "$@"
