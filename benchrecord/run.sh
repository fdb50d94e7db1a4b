#!/usr/bin/env bash
# Builds the benchmark of record from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash benchrecord/run.sh --workload cold-tail --seed 1 --seconds 20 --trace 0
#
# Every build output, cache and scratch file stays under .bench_build in
# the checkout. The build needs the repository's Go sources next to this
# directory; without them it fails and nothing is printed on stdout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# Keep the toolchain's caches, config and telemetry inside the checkout,
# and never reach for the network: the module has no dependencies
# outside this repository.
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local

go -C "$root/benchrecord" build -o "$build/benchrecord" . >&2
exec "$build/benchrecord" -workdir "$build" "$@"
