#!/usr/bin/env bash
# Every test name list in the CI workflow still names tests: `make
# runlists` (part of `make lint`), or run this script from the
# repository root.
#
# Several CI steps pick their tests with `go test -run 'A|B|C' pkgs`. A
# name that stops matching (a test renamed, moved to another package or
# deleted) drops out of such a step without a sound. For every `go test`
# line of .github/workflows/ci.yml with a -run pattern other than '^$',
# this lists the tests, examples and fuzz targets of the line's packages
# once (`go test -list .`) and fails, naming the step's line, if one
# alternative of the pattern matches none of them. The alternatives are
# plain names and unanchored fragments, on which grep -E and Go's regexp
# agree; a pattern that nests `|` inside a group would need a parser.
set -euo pipefail

ci=.github/workflows/ci.yml
status=0
while IFS= read -r line; do
	pat=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
	[ "$pat" = '^$' ] && continue
	read -ra pkgs <<<"$(grep -oE '\./[^ ]+' <<<"$line" | tr '\n' ' ')"
	names=$(go test -list . "${pkgs[@]}" | grep -E '^(Test|Example|Fuzz)' || true)
	IFS='|' read -ra alts <<<"$pat"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "runlists: -run alternative '$alt' matches no test in ${pkgs[*]} ($ci: $(sed -E 's/^[[:space:]]*//' <<<"$line" | cut -c1-60)...)"
			status=1
		fi
	done
done < <(grep -E "go test .*-run '" "$ci")
exit $status
