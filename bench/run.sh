#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it. Everything the Go toolchain writes (build cache, config, the binary)
# stays under <checkout>/.bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C "$here" build -o "$build/qdhj-bench" .
exec "$build/qdhj-bench" "$@"
