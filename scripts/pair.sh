#!/usr/bin/env bash
# Paired benchmark comparison of the working tree against a base
# revision: `make pair BASE=<rev> W=<workload> N=<pairs> [TRACE=1]`, or
# run this script from the repository root with the same variables in
# its environment.
#
# It checks BASE out with `git worktree` under .bench_build/, builds the
# benchmark of both sides with the environment bench/run.sh sets (one
# shared build cache), then runs N pairs of `-workload W -seed i`,
# alternating which side goes first. Each pair runs both sides on the
# same seed, i = 1..N. It prints, for every metric of the runs, both
# sides' median and quartiles, the median gap against the base's
# interquartile range, and in how many pairs the working tree did
# better (by the metric's "better" in BENCHMARK.json) and in how many
# both sides read the same value (with TRACE=1, nn.loss_last's count is
# the bit-identity check of a bit-preserving change). It is a report,
# not a gate: nothing here fails on a number. The raw runs, one JSON
# result per line prefixed by side and seed, go to
# .bench_build/pair/<W>-<time>.txt.
set -euo pipefail

: "${BASE:?set BASE to the revision to compare against}"
: "${W:?set W to a workload of BENCHMARK.json}"
N=${N:-5}
TRACE=${TRACE:-0}
root=$PWD
build="$root/.bench_build"
base="$build/pair-base"

mkdir -p "$build/tmp" "$build/pair"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export XDG_CONFIG_HOME="$build/config"

rev=$(git rev-parse --verify "$BASE^{commit}")
git worktree remove --force "$base" 2>/dev/null || rm -rf "$base"
git worktree prune
git worktree add --detach --quiet "$base" "$rev"
trap 'git worktree remove --force "$base"' EXIT
go build -C "$base/bench" -o "$build/pair-base.bin" .
go build -C "$root/bench" -o "$build/pair-head.bin" .

raw="$build/pair/$W-$(date -u +%Y%m%dT%H%M%SZ).txt"
run() { # side seed
	local dir=$root
	[ "$1" = base ] && dir=$base
	local out
	out=$(cd "$dir" && "$build/pair-$1.bin" -workload "$W" -seed "$2" -trace "$TRACE" | tail -n 1)
	echo "$1 $2 $out" >>"$raw"
}
for i in $(seq 1 "$N"); do
	if [ $((i % 2)) = 1 ]; then run base "$i"; run head "$i"; else run head "$i"; run base "$i"; fi
	echo "pair $i of $N done" >&2
done

echo "base $rev, head the working tree at $(git rev-parse --short HEAD), workload $W, $N pairs, trace $TRACE"
echo "raw runs: $raw"
# One "side seed metric value" line per reported number, then the report.
{
	grep -oE '"name": *"[^"]*", *"unit": *"[^"]*", *"better": *"[^"]*"' BENCHMARK.json |
		sed -E 's/"name": *"([^"]*)".*"better": *"([^"]*)"/better \1 \2/'
	while read -r side seed json; do
		echo "ops $side $seed $(sed -E 's/.*"attempted":([0-9]+),"failed":([0-9]+).*/\1 \2/' <<<"$json")"
		grep -oE '"[a-z0-9_.]+":\{"value":[^,}]+' <<<"$json" |
			sed -E 's/"([^"]+)":\{"value":(.*)/\1 \2/' | awk -v s="$side" -v d="$seed" '{print "val", s, d, $1, $2}'
	done <"$raw"
} | awk '
function q(a, n, p,   i, j, t, h, lo) { # quantile p of a[1..n] (sorted in place), linear
	for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]; a[j+1] = t }
	h = (n - 1) * p + 1; lo = int(h)
	return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
}
$1 == "better" { better[$2] = $3; next }
$1 == "ops" { att[$2] += $4; fail[$2] += $5; next }
$1 == "val" {
	if (!($4 in seen)) { seen[$4] = 1; order[++m] = $4 }
	v[$2, $4, $3] = $5; seeds[$3] = 1
}
END {
	printf "%-22s %29s %29s %8s %8s %6s %6s\n", "metric", "base median [q1 q3]", "head median [q1 q3]", "gap", "gap/IQR", "wins", "same"
	for (k = 1; k <= m; k++) {
		name = order[k]; nb = nh = wins = same = pairs = 0; delete b; delete h
		for (s in seeds) {
			if ((("base", name, s) in v)) b[++nb] = v["base", name, s]
			if ((("head", name, s) in v)) h[++nh] = v["head", name, s]
			if ((("base", name, s) in v) && (("head", name, s) in v)) {
				pairs++
				d = v["head", name, s] - v["base", name, s]
				if ((better[name] == "lower" && d < 0) || (better[name] == "higher" && d > 0)) wins++
				if (v["head", name, s] == v["base", name, s]) same++
			}
		}
		if (nb == 0 || nh == 0) continue
		b1 = q(b, nb, .25); bm = q(b, nb, .5); b3 = q(b, nb, .75)
		h1 = q(h, nh, .25); hm = q(h, nh, .5); h3 = q(h, nh, .75)
		gap = bm != 0 ? sprintf("%+.1f%%", 100 * (hm - bm) / bm) : "-"
		iqr = b3 - b1 > 0 ? sprintf("%+.2f", (hm - bm) / (b3 - b1)) : "-"
		printf "%-22s %9.6g [%8.5g %8.5g] %9.6g [%8.5g %8.5g] %8s %8s %3d/%-2d %3d/%-2d %s\n", name, bm, b1, b3, hm, h1, h3, gap, iqr, wins, pairs, same, pairs, better[name]
	}
	printf "operations: base %d attempted, %d failed; head %d attempted, %d failed\n", att["base"], fail["base"], att["head"], fail["head"]
}'
