#!/usr/bin/env bash
# Builds the fleet benchmark from source and runs it. Run it from the
# repository root; all arguments go to the benchmark:
#
#   bash fleetbench/run.sh --workload inline-year --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and results stay under .bench_build
# in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
export CGO_ENABLED=0

(cd "$root/fleetbench" && go build -o "$out/fleetbench" .)
exec "$out/fleetbench" "$@"
