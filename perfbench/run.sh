#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given flags:
#
#   bash perfbench/run.sh --workload delegate|access|persist --seed N --seconds S --trace 0|1
#
# Run from the root of the checkout. The build cache, the binary and all
# scratch files stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
# Keep every file the go command writes (build cache, module cache,
# telemetry counters under the config directory) inside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/perfbench" -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
