#!/usr/bin/env bash
# Driver entry point named by BENCHMARK.json: builds the bench from source
# into .bench_build/ under the current directory (the checkout root) and
# runs it with the given arguments. Everything the Go toolchain writes —
# build cache, temp files, the binary — stays inside .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config" # the toolchain's telemetry counters
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -buildvcs=false -o "$out/frame-job-bench" .
exec "$out/frame-job-bench" "$@"
