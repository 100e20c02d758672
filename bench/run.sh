#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes (Go build cache, binary, results) stays under
# .bench_build/ at the root of the checkout, which .gitignore names.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
# bench/ is a module of its own (ibcbench/bench) that replaces ibcbench
# with the checkout around it; it needs no network and no module cache.
GOCACHE="$build/gocache" GOPROXY=off GOTOOLCHAIN=local \
	go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"
