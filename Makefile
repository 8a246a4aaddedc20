GO ?= go

.PHONY: build test lint verify bench bench-smoke bench-kernels bench-check bench-transport

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs go vet plus aptlint -audit, the repo's own analyzer suite
# (determinism, hot-path allocation, tensor-pool invariants, and the
# distributed-protocol analyzers: lockstep collectives, goroutine
# ownership, wire-contract goldens — see DESIGN.md decisions 14 and
# 19). -audit also fails on stale //apt:allow directives, from the
# same single go/types load as the findings.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/aptlint -audit

# Fused kernels that must stay allocation-free in steady state (the
# pipelined engine depends on it); verify runs them under -benchmem and
# fails on any non-zero allocs/op. The Quant variants read through the
# int8 warm tier — their pooled dequant scratch must not show up as
# steady-state allocation either. The guarantee is for the inline
# single-proc kernel path (the parallel fan-out allocates per worker by
# design), so the run pins GOMAXPROCS=1.
ALLOC_FREE_KERNELS = 'MatMulDense|GatherMatMul$$|GatherMatMulQuant$$|TMatMulAcc$$|TMatMulAccQuant$$|SegmentAggFused'

# bench-smoke builds and runs the benchmark's own test (all four
# workloads at a hundredth of the size, ~8 s). bench/ is a module of its
# own that imports repro/internal/..., so the root `go build ./...` and
# `go test ./...` do not notice when an internal signature it uses
# changes; this does.
bench-smoke:
	$(GO) test -C bench .

# verify is the pre-merge gate: lint (vet + aptlint -audit) + build
# everything (including the serving daemon), run the concurrency-heavy
# packages (pipelined engine, pooled kernels, inference server —
# including the blue/green reload path, span/metrics collection, comm
# ledger, device clocks, the TCP transport's loopback collective tests,
# the checkpoint codec, the parallel full-graph inference path, and the
# int8 cache tier) under the race detector, then hold the fused
# kernels to zero steady-state allocations. bench-smoke keeps the
# benchmark module compiling against the internals it imports.
verify: lint bench-smoke
	$(GO) build ./...
	$(GO) build ./cmd/aptserve
	$(GO) test -race ./internal/engine/... ./internal/tensor/... ./internal/serve/... ./internal/obs/... ./internal/comm/... ./internal/device/... ./internal/transport/... ./internal/checkpoint/... ./internal/fullgraph/... ./internal/cache/...
	GOMAXPROCS=1 $(GO) test -run XXX -bench $(ALLOC_FREE_KERNELS) -benchmem -benchtime 50x ./internal/tensor/ \
		| awk '/^Benchmark/ { if ($$(NF-1)+0 != 0) { print "FAIL (allocs/op != 0):", $$0; bad=1 } } END { exit bad }'

bench:
	$(GO) test -run XXX -bench . -benchtime 1x .

# bench-kernels regenerates BENCH_kernels.json: the tensor-package
# kernel micro-benchmarks plus the end-to-end epoch/substrate
# benchmarks whose pre-fusion baseline is recorded in cmd/benchkernels.
# Two series are recorded: a GOMAXPROCS=1 run (comparable across
# machines, the series bench-check gates on) and a GOMAXPROCS=NumCPU
# run that lets the parallel kernel branches fire on multi-core hosts.
EPOCH_BENCHES = 'MatMul128|SegmentMean$$|EpochSequential|EpochPipelined'

bench-kernels:
	( GOMAXPROCS=1 $(GO) test -run XXX -bench . -benchmem -benchtime 100x ./internal/tensor/ ; \
	  GOMAXPROCS=1 $(GO) test -run XXX -bench $(EPOCH_BENCHES) -benchmem -benchtime 20x . ; \
	  echo '# series: maxprocs' ; \
	  $(GO) test -run XXX -bench . -benchmem -benchtime 100x ./internal/tensor/ ; \
	  $(GO) test -run XXX -bench $(EPOCH_BENCHES) -benchmem -benchtime 20x . ) \
		| $(GO) run ./cmd/benchkernels -out BENCH_kernels.json

# bench-check re-runs the GOMAXPROCS=1 series and fails if any shared
# benchmark's ns/op regressed more than 10% against the committed
# BENCH_kernels.json record, then re-runs the raw allreduce series and
# fails on a >10% regression against BENCH_transport.json (or a
# ring-vs-naive win at world 4 over TCP below 40%).
bench-check:
	( GOMAXPROCS=1 $(GO) test -run XXX -bench . -benchmem -benchtime 100x ./internal/tensor/ ; \
	  GOMAXPROCS=1 $(GO) test -run XXX -bench $(EPOCH_BENCHES) -benchmem -benchtime 20x . ) \
		| $(GO) run ./cmd/benchkernels -check -against BENCH_kernels.json
	$(GO) run ./cmd/aptbench -exp transport -check

# bench-transport regenerates BENCH_transport.json: wall-clock epoch
# time of real-mode training per strategy under the in-process channel
# transport vs the TCP backend over loopback (2 rank processes), plus
# the raw allreduce series — naive full-mesh vs chunked ring, per wire
# codec (fp32/fp16/int8), at worlds 2 and 4 over both backends.
# Training is bit-identical across the two, so the tcp/channel ratio
# isolates pure wire overhead (serialization + sockets).
bench-transport:
	$(GO) run ./cmd/aptbench -exp transport -scale 0.1 -epochs 2
