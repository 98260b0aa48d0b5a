#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Every build artifact (Go build cache, temporary
# files, the binary) stays under .bench_build at the checkout root, and
# the toolchain is kept offline.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
