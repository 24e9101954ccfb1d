#!/usr/bin/env bash
# Driver entry point named by BENCHMARK.json: builds the benchmark from
# source into <checkout>/.bench_build and runs it with the arguments given.
# Build cache, temporary files and data directories all stay inside the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$build/orderbench" .
cd "$root"
exec "$build/orderbench" "$@"
