#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload rgg100k --seed 1 --seconds 10 --trace 0
#
# Build cache, binary, results, traces and job checkpoints all stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "benchmark: run from the repository root (needs go.mod, internal/ and benchmark/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOENV=off
export GOFLAGS=

go -C "$root/benchmark" build -o "$build/bftbench-perf" .
exec "$build/bftbench-perf" --out "$build" "$@"
