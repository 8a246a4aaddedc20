#!/usr/bin/env bash
# Which code the program's entry points reach: `make reach`, or run this
# script from the repository root.
#
# It builds, with -cover -coverpkg=repro/... and the environment
# bench/run.sh sets, the benchmark, the cmd/ binaries (aptbench, aptrun,
# aptserve, aptlint) and every examples/* program under
# .bench_build/reach/bin, and runs each of them with GOCOVERDIR set:
#
#   bench          every workload of BENCHMARK.json, untraced and traced,
#                  at a short -seconds
#   examples/<x>   each example, as `make examples-smoke` runs it
#   aptbench       -exp all -scale 0.05, and its -trace pass
#   aptrun         in-process with -explain -timeline -metrics -trace
#                  -ckpt-dir, then again with -resume
#   aptrun-tcp     a 2-rank loopback TCP job with -measure-wire
#   aptserve       the daemon over aptrun's snapshot, driven through
#                  /predict, /stats, /metrics, /reload and SIGHUP; and its
#                  handler tests (go test ./cmd/aptserve, which write
#                  coverage with -test.gocoverdir)
#   aptlint        over this repository
#
# It merges the runs with `go tool covdata` and prints the statement
# coverage of each package, every function some run reached with the
# entry points that reach it, and last every function no run reached.
# Raw coverage data, the binaries and the runs' scratch files go to
# .bench_build/reach/.
#
# It is a report, not a gate: nothing here fails on a number. A
# function at 0 % is a question, not a deletion verdict. The runs use
# one configuration each, on whatever kernel tier this machine's CPU
# selects. tmatmulAcc8, for one, is unreached on an AVX-512 machine,
# yet it is the only vector weight gradient on CPUs with AVX2 alone: on
# the 2 300 x 128 x 32 layer-0 shape it took 0.70 ms against 5.3 ms for
# the Go loop. Error paths are reached by tests, not by these runs,
# and a function with an empty body has no statements, so it reads 0 %
# even when called.
# Find out why a function is unreached, and who else needs it, before
# deleting it.
set -euo pipefail

root=$PWD
build="$root/.bench_build"
reach="$build/reach"
bin="$reach/bin"
work="$reach/work"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export XDG_CONFIG_HOME="$build/config"
cover=(-cover -coverpkg=repro/...)
start=$SECONDS

rm -rf "$reach"
mkdir -p "$bin" "$work"
go build -C bench "${cover[@]}" -o "$bin/bench" .
for c in aptbench aptrun aptserve aptlint; do
	go build "${cover[@]}" -o "$bin/$c" "./cmd/$c"
done
examples=$(cd examples && ls -d */ | tr -d /)
for e in $examples; do
	go build "${cover[@]}" -o "$bin/example-$e" "./examples/$e"
done

# covdir ENTRY RUN makes and prints the coverage directory of one run of
# an entry point; the report groups runs by ENTRY.
covdir() {
	local dir="$reach/runs/$1/$2"
	mkdir -p "$dir"
	echo "$dir"
}

# port prints a loopback TCP port unlikely to be in use.
port() {
	echo $((20000 + RANDOM % 20000))
}

workloads=$(sed -n '/"workloads"/,/"end_to_end"/p' BENCHMARK.json | grep -oE '"name": *"[^"]+"' | sed -E 's/.*"([^"]+)"$/\1/')
for w in $workloads; do
	for trace in 0 1; do
		echo "== bench: $w, trace $trace" >&2
		GOCOVERDIR=$(covdir bench "$w-trace$trace") "$bin/bench" -workload "$w" -seconds 2 -trace "$trace" >/dev/null
	done
done

for e in $examples; do
	echo "== examples/$e" >&2
	GOCOVERDIR=$(covdir "examples/$e" run) "$bin/example-$e" >/dev/null
done

echo "== aptbench -exp all" >&2
GOCOVERDIR=$(covdir aptbench all) "$bin/aptbench" -exp all -scale 0.05 >/dev/null
GOCOVERDIR=$(covdir aptbench trace) "$bin/aptbench" -scale 0.05 -trace "$work/aptbench.json" >/dev/null

job=(-data PS -scale 0.05 -hidden 8 -fanout 5 -batch 64 -devices 2)
echo "== aptrun in-process, then -resume" >&2
mkdir -p "$work/ckpt"
GOCOVERDIR=$(covdir aptrun fresh) "$bin/aptrun" "${job[@]}" -epochs 2 \
	-explain -timeline -metrics -trace "$work/aptrun.json" -ckpt-dir "$work/ckpt" >/dev/null
GOCOVERDIR=$(covdir aptrun resume) "$bin/aptrun" "${job[@]}" -epochs 3 -ckpt-dir "$work/ckpt" -resume >/dev/null

echo "== aptrun, 2 TCP ranks, -measure-wire" >&2
dir=$(covdir aptrun-tcp ranks)
coord=127.0.0.1:$(port)
GOCOVERDIR=$dir "$bin/aptrun" "${job[@]}" -epochs 2 -measure-wire -rank 1 -coord "$coord" >/dev/null &
rank1=$!
GOCOVERDIR=$dir "$bin/aptrun" "${job[@]}" -epochs 2 -measure-wire -rank 0 -coord "$coord" >/dev/null
wait "$rank1"

echo "== aptserve daemon over aptrun's snapshot" >&2
url=http://127.0.0.1:$(port)
GOCOVERDIR=$(covdir aptserve daemon) "$bin/aptserve" "${job[@]}" \
	-checkpoint "$work/ckpt/snapshot.aptc" -addr "${url#http://}" >/dev/null &
daemon=$!
trap 'kill "$daemon" 2>/dev/null || true' EXIT
curl -sf --retry 60 --retry-delay 1 --retry-connrefused "$url/healthz" >/dev/null
curl -sf "$url/predict" -d '{"nodes":[1,2,3]}' >/dev/null
curl -sf "$url/stats" >/dev/null
curl -sf "$url/metrics" >/dev/null
curl -sf -X POST "$url/reload" >/dev/null
kill -HUP "$daemon"
curl -sf "$url/predict" -d '{"nodes":[4,5]}' >/dev/null
kill -TERM "$daemon"
wait "$daemon"
trap - EXIT

echo "== aptserve handler tests" >&2
go test "${cover[@]}" -count=1 ./cmd/aptserve -args -test.gocoverdir="$(covdir aptserve tests)" >/dev/null

echo "== aptlint" >&2
GOCOVERDIR=$(covdir aptlint run) "$bin/aptlint" >/dev/null

runs=$(find "$reach/runs" -name 'covmeta.*' -printf '%h\n' | sort -u)
entries=$(for r in $runs; do dirname "${r#"$reach/runs/"}"; done | sort -u)
mkdir -p "$reach/merged"
go tool covdata merge -i="$(echo "$runs" | paste -sd,)" -o="$reach/merged"

# One "<file:line:> <function> <entry>" line per function an entry point
# reaches.
for e in $entries; do
	go tool covdata func -i="$(echo "$runs" | grep -F "$reach/runs/$e/" | paste -sd,)" |
		awk -v e="$e" '$1 != "total" && $NF != "0.0%" { print $1, $2, e }'
done >"$reach/reached.txt"

echo "statement coverage per package, $(echo "$runs" | wc -l) runs from $(echo "$entries" | wc -l) entry points merged:"
go tool covdata percent -i="$reach/merged" | sed -E 's/^[[:space:]]*//' | sort
echo
echo "functions some run reached, with the entry points that reach them:"
awk '{ k = $1 " " $2; if (!(k in by)) order[++n] = k; by[k] = by[k] (by[k] == "" ? "" : ",") $3 }
	END { for (i = 1; i <= n; i++) print order[i], by[order[i]] }' "$reach/reached.txt"
echo
echo "functions no run reached:"
go tool covdata func -i="$reach/merged" | awk '$1 != "total" && $NF == "0.0%"'
echo "reach took $((SECONDS - start)) s" >&2
