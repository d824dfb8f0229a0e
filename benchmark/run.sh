#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Everything the build and the run write (Go build cache,
# binary, engine data directories) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/benchmark" && go build -o "$build/asterix-benchmark" .)
cd "$root"
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$build/asterix-benchmark" -commit "$commit" "$@"
