#!/usr/bin/env bash
# Builds the benchmark and runs it with the arguments given. The benchmark is
# a Go module of its own (bench/go.mod) that replaces pmcast with the checkout
# it sits in, so it always measures the tree around it. Everything the build
# writes — the binary, Go's build cache, its temporary files — stays under
# .bench_build/ in the checkout, and nothing is fetched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
cd "$here" # the traced pass writes its spans to ./out
go build -o "$build/pmcast-bench" .
exec "$build/pmcast-bench" "$@"
