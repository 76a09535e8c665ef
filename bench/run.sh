#!/usr/bin/env bash
# Builds the benchmark inside the checkout (build cache included, so
# nothing is written outside it) and runs it with the given arguments.
set -euo pipefail
dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$dir")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$dir" && go build -o "$build/ollock-bench" .)
exec "$build/ollock-bench" -outdir "$dir/out" "$@"
