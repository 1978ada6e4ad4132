#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything
# the Go toolchain writes — build cache, module cache, temporaries, the
# binary — stays under .bench_build/ in the checkout, and the benchmark
# itself writes only under bench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off

cd "$here"
go build -o "$build/sgxorch-bench" .
exec "$build/sgxorch-bench" "$@"
