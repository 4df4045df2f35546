#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the root of a
# checkout: bash benchmark/run.sh --workload er-search --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind stays in .bench_build/ of
# the checkout: the Go build cache, the binaries and the daemon's data
# directories. Nothing is read from or written to the home directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"

mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOPROXY=off GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config"

go build -C "$here" -o "$out/bin/benchmark" .
exec "$out/bin/benchmark" -root "$root" -work "$out" "$@"
