#!/usr/bin/env bash
# Which code the benchmark's traffic reaches: `make reach`, or run this
# script from the repository root.
#
# It builds the benchmark under .bench_build/ with the environment
# bench/run.sh sets plus -cover -coverpkg=repro/..., runs every workload
# of BENCHMARK.json once untraced and once traced, at a short -seconds,
# with GOCOVERDIR set, merges the runs with `go tool covdata`, and
# prints the statement coverage of each package and every function that
# no run reached. Raw coverage data goes to .bench_build/reach/.
#
# It is a report, not a gate: nothing here fails on a number. A
# function at 0 % is a question, not a deletion verdict. The workloads
# run one configuration each, on whatever kernel tier this machine's
# CPU selects. tmatmulAcc8, for one, is unreached on an AVX-512 machine,
# yet it is the only vector weight gradient on CPUs with AVX2 alone: on
# the 2 300 x 128 x 32 layer-0 shape it took 0.70 ms against 5.3 ms for
# the Go loop. Find out why a function is unreached, and who else needs
# it, before deleting it.
set -euo pipefail

root=$PWD
build="$root/.bench_build"
reach="$build/reach"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export XDG_CONFIG_HOME="$build/config"

go build -C bench -cover -coverpkg=repro/... -o "$build/reach.bin" .
rm -rf "$reach"
runs=()
workloads=$(sed -n '/"workloads"/,/"end_to_end"/p' BENCHMARK.json | grep -oE '"name": *"[^"]+"' | sed -E 's/.*"([^"]+)"$/\1/')
for w in $workloads; do
	for trace in 0 1; do
		dir="$reach/$w-trace$trace"
		mkdir -p "$dir"
		echo "== $w, trace $trace" >&2
		GOCOVERDIR="$dir" "$build/reach.bin" -workload "$w" -seconds 2 -trace "$trace" >/dev/null
		runs+=("$dir")
	done
done
mkdir -p "$reach/merged"
go tool covdata merge -i="$(IFS=,; echo "${runs[*]}")" -o="$reach/merged"

echo "statement coverage per package, ${#runs[@]} runs merged:"
go tool covdata percent -i="$reach/merged" | sed -E 's/^[[:space:]]*//' | sort
echo
echo "functions no run reached:"
go tool covdata func -i="$reach/merged" | awk '$NF == "0.0%"'
