#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fuse-seqread --seed 42 --seconds 30 --trace 0
#
# Run it from the root of a checkout. Every file the Go toolchain writes
# (build cache, module cache, configuration) stays under .bench_build in
# that checkout, and nothing is downloaded.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$bench_dir" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
