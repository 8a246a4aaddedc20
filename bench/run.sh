#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: `bash bench/run.sh -seed 1`.
#
# The build cache, the compiler's scratch files and the binary all live
# under .bench_build in the working directory, so a run reads and writes
# nothing outside its checkout. The first build in a checkout compiles
# the standard library too (about 15 s on two cores).
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
# The go command keeps its telemetry counters in the user's config
# directory; point that into the checkout as well.
export XDG_CONFIG_HOME="$build/config"
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
