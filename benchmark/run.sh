#!/usr/bin/env bash
# The command BENCHMARK.json registers. Builds the benchmark from source
# into .bench_build at the root of the checkout, then runs it with the
# driver's arguments (--workload --seed --seconds --trace).
#
# Everything the build and the run write stays inside the checkout: the
# Go build cache, module cache and temp directory are pointed into
# .bench_build, and the benchmark's own scratch files go to
# .bench_build/tmp. The first run in a fresh checkout therefore compiles
# the standard library too.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$build/dsi-benchmark" .) >&2

exec "$build/dsi-benchmark" "$@" -repo "$root" -tmp "$build/tmp"
