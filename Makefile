GO ?= go

.PHONY: build test lint runlists verify bench bench-smoke examples-smoke fuzz-smoke count pair reach

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs go vet plus aptlint, the repo's own analyzer suite
# (determinism, hot-path allocation, tensor-pool invariants, and the
# distributed-protocol analyzers: lockstep collectives, goroutine
# ownership, wire-contract goldens — see DESIGN.md decisions 14 and
# 19). aptlint also fails on stale //apt:allow directives, from the
# same single go/types load as the findings. The second vet type-checks
# the file set of a GOARCH without vector kernels (internal/tensor's
# kernels_generic.go instead of kernels_amd64.{go,s}), so the portable
# path cannot stop compiling unnoticed on an amd64 runner; it needs
# only GOROOT, no network. runlists follows.
lint: runlists
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	$(GO) run ./cmd/aptlint

# runlists fails when an alternative of a CI step's `go test -run 'A|B'`
# list matches no test of the step's packages (scripts/runlists.sh): a
# renamed or deleted test would otherwise drop out of the step silently.
runlists:
	bash scripts/runlists.sh

# bench-smoke builds and runs the benchmark's own test (all four
# workloads at a hundredth of the size, ~8 s). bench/ is a module of its
# own that imports repro/internal/..., so the root `go build ./...` and
# `go test ./...` do not notice when an internal signature it uses
# changes; this does.
bench-smoke:
	$(GO) test -C bench .

# examples-smoke builds and runs every example end to end (about 10 s)
# and fails on a non-zero exit: `go build ./...` compiles them, nothing
# else runs them.
examples-smoke:
	@for e in examples/*/; do echo "== $$e"; $(GO) run ./$$e >/dev/null || exit 1; done

# fuzz-smoke runs every fuzz target for 10 s past its seed corpus,
# which `make test` runs as plain tests. A target must still exist by
# its name: `go test -fuzz` that matches nothing warns and passes. An
# input that fails lands in the package's testdata/fuzz/<Name>/, to be
# kept as a seed once fixed.
FUZZ_TARGETS = \
	./cmd/aptserve:FuzzPredictBody \
	./internal/graph:FuzzReadEdgeList \
	./internal/transport:FuzzFP16ChunkIdentity \
	./internal/transport:FuzzInt8ChunkError \
	./internal/transport:FuzzDecodePayload \
	./internal/checkpoint:FuzzDecode \
	./internal/checkpoint:FuzzDecodeModel \
	./internal/tensor:FuzzSIMDMatchesGeneric

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; echo "== $$name ($$pkg)"; \
		$(GO) test -list "^$$name\$$" $$pkg | grep -qx "$$name" || { echo "fuzz-smoke: no fuzz target $$name in $$pkg"; exit 1; }; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 10s $$pkg || exit 1; \
	done

# verify is the pre-merge gate: lint (vet, incl. asmdecl on the amd64
# kernels; GOARCH=arm64 vet for the portable path; aptlint) + build
# everything (including the serving daemon), then run the
# concurrency-heavy packages (pipelined engine, the model forward that
# serving runs concurrently on one shared model, pooled kernels,
# inference server — including the model reload path, span/metrics
# collection, comm collectives, device clocks, the TCP transport's loopback
# collective tests, the checkpoint codec, and the int8 cache tier) under
# the race detector.
# bench-smoke keeps the benchmark module compiling against the
# internals it imports; examples-smoke runs the examples. The kernels'
# zero-allocation guard is a tier-1 test
# (tensor.TestFusedKernelsAllocFree), so `make test` holds it.
verify: lint bench-smoke examples-smoke
	$(GO) build ./...
	$(GO) build ./cmd/aptserve
	$(GO) test -race ./internal/engine/... ./internal/nn/... ./internal/tensor/... ./internal/serve/... ./internal/obs/... ./internal/comm/... ./internal/device/... ./internal/transport/... ./internal/checkpoint/... ./internal/cache/...

# bench runs the repo's one benchmark (BENCHMARK.json, bench/README.md)
# with its defaults; call bench/run.sh directly to pass -workload,
# -seed or -trace.
bench:
	bash bench/run.sh

# pair compares the working tree with BASE on workload W over N pairs
# of benchmark runs that alternate which side goes first, and prints
# both sides' medians and quartiles, the gap against the base's spread
# and the wins (scripts/pair.sh). A report, not a gate:
# make pair BASE=<rev> W=<workload> N=<pairs> [TRACE=1]
pair:
	BASE=$(BASE) W=$(W) N=$(N) TRACE=$(TRACE) bash scripts/pair.sh

# reach reports which code the program's entry points run
# (scripts/reach.sh, ~4 min on 2 vCPUs): it builds the benchmark, the
# cmd/ binaries and the examples with coverage of the whole module;
# runs every benchmark workload untraced and traced for a few seconds,
# the four examples, aptbench -exp all and its -trace pass, aptrun
# in-process (with -explain -timeline -metrics -trace -ckpt-dir, then
# -resume) and as a 2-rank TCP job with -measure-wire, the aptserve
# daemon over aptrun's snapshot and aptserve's handler tests, and
# aptlint; merges the runs; and prints each package's statement
# coverage, the entry points that reach each function, and every
# function no run reached. A report, not a gate: a function at 0 % is a
# question, not a deletion verdict.
reach:
	bash scripts/reach.sh

# count prints the sizes a simplicity PR quotes before and after: code
# lines outside tests and bench/, exported functions and methods of
# internal/ (non-test), the root package's exported names, the
# examples' imports of repro/internal (0: an example is written against
# the facade, which is all a module outside this one can import), experiment
# ids, option fields (core.APT's settable ones among them), the
# exported fields of every *Config / *Options struct of internal/
# (non-test; one per name, so "A, B, C float64" counts 3), binaries,
# CLI flags (the flags two binaries share are declared once, in
# internal/job, and counted once) and the //apt:allow directives of
# non-test code, bench/ included (aptlint's "allow directive(s)").
count:
	@printf 'non-test code lines outside bench/: '; find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './bench/*' | xargs cat | grep -vE '^\s*(//|$$)' | wc -l
	@printf 'exported funcs + methods in internal/ (non-test): '; find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | grep -cE '^func (\([^)]*\) )?[A-Z]'
	@printf 'facade exports (package repro): '; $(GO) doc -all . | grep -cE '^(func|type|var|const) [A-Z]|^	[A-Z][A-Za-z0-9]* +='
	@printf 'repro/internal imports in examples/: '; grep -rhoE '"repro/internal/[^"]*"' examples --include='*.go' | wc -l
	@printf 'experiments.All ids: '; grep -cE '^	\{"[a-z0-9-]+", \(\*Env\)\.' internal/experiments/experiments.go
	@printf 'exported core.Task fields: '; $(GO) doc ./internal/core Task | sed -n '/^type Task struct/,/^}/p' | grep -cE '^	[A-Z]'
	@printf 'exported core.APT fields: '; $(GO) doc ./internal/core APT | sed -n '/^type APT struct/,/^}/p' | grep -cE '^	[A-Z]'
	@printf 'exported engine.Config fields: '; $(GO) doc ./internal/engine Config | sed -n '/^type Config struct/,/^}/p' | grep -cE '^	[A-Z]'
	@printf 'serve.Config fields: '; $(GO) doc ./internal/serve Config | sed -n '/^type Config struct/,/^}/p' | grep -cE '^	[A-Z]'
	@printf '*Config / *Options fields in internal/ (non-test): '; find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs awk '/^type [A-Za-z0-9_]*(Config|Options) struct \{/ { on = 1; next } on && /^}/ { on = 0 } on && match($$0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)*/) { names = substr($$0, 1, RLENGTH); n += 1 + gsub(/,/, "", names) } END { print n + 0 }'
	@printf 'cmd/ binaries: '; ls cmd | wc -l
	@printf 'cmd/ flags (incl. the shared set in internal/job): '; grep -rhoE '\b(flag|fs)\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(Var)?\(' cmd internal/job/job.go --include='*.go' | wc -l
	@printf '//apt:allow directives (non-test): '; find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs grep -hE '^\s*//apt:allow' | wc -l
