#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout root. Everything the Go toolchain writes (build cache, temp files,
# telemetry) is kept under .bench_build/ so a run touches nothing outside.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/nsbench" .)
cd "$root"
exec "$build/nsbench" "$@"
