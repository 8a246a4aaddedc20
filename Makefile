GO ?= go

.PHONY: build test lint verify bench bench-smoke examples-smoke count

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs go vet plus aptlint -audit, the repo's own analyzer suite
# (determinism, hot-path allocation, tensor-pool invariants, and the
# distributed-protocol analyzers: lockstep collectives, goroutine
# ownership, wire-contract goldens — see DESIGN.md decisions 14 and
# 19). -audit also fails on stale //apt:allow directives, from the
# same single go/types load as the findings. The second vet type-checks
# the file set of a GOARCH without vector kernels (internal/tensor's
# kernels_generic.go instead of kernels_amd64.{go,s}), so the portable
# path cannot stop compiling unnoticed on an amd64 runner; it needs
# only GOROOT, no network.
lint:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	$(GO) run ./cmd/aptlint -audit

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

# verify is the pre-merge gate: lint (vet, incl. asmdecl on the amd64
# kernels; GOARCH=arm64 vet for the portable path; aptlint -audit) + build
# everything (including the serving daemon), then run the
# concurrency-heavy packages (pipelined engine, the model forward that
# serving runs concurrently on one shared model, pooled kernels,
# inference server — including the blue/green reload path, span/metrics
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

# count prints the sizes a simplicity PR quotes before and after: code
# lines outside tests and bench/, exported functions and methods of
# internal/ (non-test), the root package's exported names, experiment
# ids, option fields (core.APT's settable ones among them), binaries,
# CLI flags (the flags two binaries share are declared once, in
# internal/job, and counted once) and the //apt:allow directives of
# non-test code, bench/ included (aptlint -audit's "allow directive(s)").
count:
	@printf 'non-test code lines outside bench/: '; find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './bench/*' | xargs cat | grep -vE '^\s*(//|$$)' | wc -l
	@printf 'exported funcs + methods in internal/ (non-test): '; find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | grep -cE '^func (\([^)]*\) )?[A-Z]'
	@printf 'facade exports (package repro): '; $(GO) doc -all . | grep -cE '^(func|type|var|const) [A-Z]|^	[A-Z][A-Za-z0-9]* +='
	@printf 'experiments.All ids: '; grep -cE '^	\{"[a-z0-9-]+", \(\*Env\)\.' internal/experiments/experiments.go
	@printf 'exported core.Task fields: '; $(GO) doc ./internal/core Task | sed -n '/^type Task struct/,/^}/p' | grep -cE '^	[A-Z]'
	@printf 'exported core.APT fields: '; $(GO) doc ./internal/core APT | sed -n '/^type APT struct/,/^}/p' | grep -cE '^	[A-Z]'
	@printf 'exported engine.Config fields: '; $(GO) doc ./internal/engine Config | sed -n '/^type Config struct/,/^}/p' | grep -cE '^	[A-Z]'
	@printf 'serve.Config fields: '; $(GO) doc ./internal/serve Config | sed -n '/^type Config struct/,/^}/p' | grep -cE '^	[A-Z]'
	@printf 'cmd/ binaries: '; ls cmd | wc -l
	@printf 'cmd/ flags (incl. the shared set in internal/job): '; grep -rhoE '\b(flag|fs)\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(Var)?\(' cmd internal/job/job.go --include='*.go' | wc -l
	@printf '//apt:allow directives (non-test): '; find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs grep -hE '^\s*//apt:allow' | wc -l
