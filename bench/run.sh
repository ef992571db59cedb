#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# the checkout's build directory and runs it with the driver's arguments.
# Everything the Go toolchain writes — build cache, temporaries, its own
# configuration — is pointed inside the checkout, and so is the benchmark's
# output directory, so a run reads and writes nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS="-buildvcs=false"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C "$root/bench" -o "$build/ml4all-bench" .
exec "$build/ml4all-bench" -out "$root/bench/out" "$@"
