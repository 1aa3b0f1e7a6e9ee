#!/usr/bin/env bash
# Builds moocbench from the sources of the checkout it is run in and
# runs it with the given arguments, for example:
#
#   bash cmd/moocbench/run.sh --workload portal-storm --seed 3 --seconds 15 --trace 0
#
# Run it from the root of the checkout. The build cache, the binary and
# the benchmark's temporary files (portal journals) stay under
# .bench_build/ there; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C cmd/moocbench build -o "$build/moocbench" .
exec "$build/moocbench" "$@"
