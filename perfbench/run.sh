#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 40 --trace 0
#
# Build caches, traces and span files all stay under .bench_build/.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
