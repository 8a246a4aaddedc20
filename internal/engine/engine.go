// Package engine implements APT's unified execution engine (paper
// §4.2): a single worker harness that can be configured to run any of
// the four parallelization strategies. Each simulated GPU is driven by
// one goroutine; every mini-batch step decomposes into the paper's
// Permute / Shuffle / Execute / Reshuffle stages, realized by the one
// layer walk in layer1.go, which each strategy parameterizes with a
// placement at layer 1. Layers above the first run GDP's placement,
// data-parallel (paper §3.1: "All strategies target the first layer").
//
// An engine drives exactly the ranks its Config.Transport hosts: every
// device on the default in-process channel fabric, its own one on a
// wire transport (one OS process per rank). Per-rank state — model,
// optimizer, sampler, gradient sync, span tracks — exists only for
// those ranks; the simulated device group is always the whole platform.
//
// Execute runs a layer's dense half as nn.Project / nn.ProjectBackward
// over the placement's rows and columns, the composition the model's
// own forward and backward use, so the two cannot drift apart.
//
// The engine has two modes sharing one code path, and the feature
// store alone decides which:
//
//   - Real (Config.Store holds features): floats move and models
//     train; used for correctness tests, the semantic-equivalence
//     sanity check (paper Fig. 6), and the examples.
//   - Accounting (a store without features): the same sampling,
//     partitioning, caching, and dispatch logic runs and every payload
//     is charged to the simulated clocks, but numeric kernels are
//     skipped; used by the planner's dry run and the benchmark harness
//     to reproduce the paper's epoch-time figures quickly.
package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/comm"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/strategy"
	"repro/internal/tensor"
)

// Config assembles everything one engine run needs. The Store must
// already be configured (caches + host placement) by the caller — APT's
// Adapt step does that in package core.
type Config struct {
	Platform *hardware.Platform
	Graph    *graph.Graph
	// Store is the unified feature store. Its features decide the mode:
	// with Store.Feats the engine trains (real mode), without them it
	// only charges (accounting mode).
	Store *cache.Store
	// NewModel constructs one model replica; the engine creates one
	// per hosted rank and initializes all replicas identically from Seed.
	NewModel func() *nn.Model
	// NewOptimizer constructs one optimizer per hosted rank (real mode).
	NewOptimizer func() nn.Optimizer
	// Labels are node class labels; real mode requires them.
	Labels []int32
	// Seeds are the training seed nodes.
	Seeds []graph.NodeID
	// Sampling configures neighbor sampling. IncludeDstInSrc is forced
	// on when the model needs it.
	Sampling sample.Config
	// BatchSize is the per-device mini-batch size (paper: 1024).
	BatchSize int
	// Assign maps node -> owning device for SNP/DNP.
	Assign []int32
	// Kind selects the parallelization strategy.
	Kind strategy.Kind
	Seed uint64
	// ForceSeedPlan overrides per-strategy seed assignment with a fixed
	// plan; the strategy-equivalence tests use it so every strategy
	// trains on identical mini-batches.
	ForceSeedPlan *sample.SeedPlan
	// PreSampled supplies ready-made mini-batches indexed
	// [device][step], bypassing the sampler (requires ForceSeedPlan
	// describing the same batches). The planner's dry-run uses it to
	// dispatch ONE epoch of samples under all four strategies, the
	// paper's "the same graph samples are reused during dry-run"
	// optimization. Sampling time is still charged once per batch.
	PreSampled [][]*sample.MiniBatch
	// Pipeline overlaps each worker's sampling with its compute: a
	// per-worker prefetch goroutine samples mini-batch t+1 while batch t
	// computes, with at most two sampled batches waiting ahead of
	// compute. Real mode trains bit-identically to the synchronous path
	// (the prefetcher preserves the sampler's RNG stream order); both
	// modes additionally track the overlapped schedule on the simulated
	// clocks and report it as EpochStats.MeasuredPipelinedSec.
	Pipeline bool
	// Spans, when non-nil, collects per-step spans (stage, device,
	// step, bytes, simulated clock) onto one track per device — plus a
	// sampler track and a comm track each — for the Chrome trace and
	// text timeline exporters. Nil keeps the hot path allocation-free:
	// every emission point is a nil *obs.Track no-op.
	Spans *obs.Collector
	// Transport is the fabric the collectives cross; nil selects the
	// in-process channel fabric, which hosts every rank. The engine
	// drives exactly Transport.Ranks(): on a wire backend (e.g.
	// transport.TCP, one OS process per rank) that is the process's own
	// rank. Every rank process must build the engine from an IDENTICAL
	// Config (same graph, seed, plan, store layout) — the engine's
	// determinism then guarantees the replicas stay bit-identical
	// without any parameter broadcast. EpochStats cover the hosted ranks.
	Transport comm.Transport
}

// Engine executes GNN training under one strategy.
type Engine struct {
	cfg      Config
	Group    *device.Group
	Comm     *comm.Comm
	place    placement
	epochRNG *graph.RNG
	// workers holds one worker per hosted rank, in ascending rank order.
	workers []*worker
	// spanBase offsets span start times by the simulated time of all
	// previous epochs, so a multi-epoch trace reads as one timeline
	// (device clocks reset every epoch).
	spanBase float64
	// epochsRun counts epochs completed in full (cancelled epochs are
	// excluded); see EpochsRun.
	epochsRun int
}

// worker is the execution state of one hosted rank.
type worker struct {
	eng     *Engine
	dev     *device.Device
	model   *nn.Model
	opt     nn.Optimizer
	sampler *sample.Sampler
	stats   *WorkerStats
	// pipelinedSec is the worker's simulated finish time under the
	// overlapped schedule (pipelined mode only); kept off WorkerStats so
	// aggregation maxes it instead of summing.
	pipelinedSec float64
	// spanDev/spanSmp are the worker's span tracks (nil when
	// observability is off); spanCursor is the device track's position
	// on the simulated clock within the current epoch.
	spanDev    *obs.Track
	spanSmp    *obs.Track
	spanCursor float64
	// stopPrefetch tells the worker's prefetch goroutine to quit early
	// after the compute loop agreed on cancellation.
	stopPrefetch atomic.Bool
	// unionStamp/unionGen/unionBuf are the reusable stamp-scratch
	// behind unionNodes (see load.go): per-node generation stamps plus
	// the union output buffer, both reused across steps. unionPos is the
	// per-node position scratch of buildMiniBlock's dedup.
	unionStamp []int32
	unionGen   int32
	unionBuf   []graph.NodeID
	unionPos   []int32
	// labelBuf is the per-step label gather scratch, reused across steps.
	labelBuf []int32
	// ctxs holds the step's per-layer forward contexts, reused across
	// steps.
	ctxs []*layerCtx
	// gsync is the bucketed backward-overlapped gradient sync (real
	// mode, more than one device; nil otherwise — see gradsync.go).
	gsync *gradSync
}

// real reports whether the engine trains: exactly when its store holds
// features.
func (w *worker) real() bool { return w.eng.cfg.Store.Feats != nil }

// New validates the configuration and assembles an engine.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("engine: nil feature store")
	}
	if cfg.NewModel == nil {
		return nil, fmt.Errorf("engine: nil model factory")
	}
	if cfg.Kind.NeedsPartition() {
		if cfg.Assign == nil {
			return nil, fmt.Errorf("engine: %v requires a graph partition", cfg.Kind)
		}
		if len(cfg.Assign) != cfg.Graph.NumNodes() {
			return nil, fmt.Errorf("engine: partition covers %d nodes, graph has %d",
				len(cfg.Assign), cfg.Graph.NumNodes())
		}
		n := int32(cfg.Platform.NumDevices())
		for v, a := range cfg.Assign {
			if a < 0 || a >= n {
				return nil, fmt.Errorf("engine: node %d assigned to device %d of %d", v, a, n)
			}
		}
	}
	if cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("engine: batch size %d", cfg.BatchSize)
	}
	n := cfg.Platform.NumDevices()
	tr := cfg.Transport
	if tr == nil {
		tr = comm.NewChanTransport(n)
	}
	if w := tr.World(); w != n {
		return nil, fmt.Errorf("engine: transport world %d != %d devices", w, n)
	}
	e := &Engine{cfg: cfg}
	e.Group = device.NewGroup(cfg.Platform)
	e.Comm = comm.NewWithTransport(e.Group, tr)

	probe := cfg.NewModel()
	if len(probe.Layers) == 0 {
		return nil, fmt.Errorf("engine: model %q has no layers", probe.Name)
	}
	if probe.NeedsDstInSrc() {
		e.cfg.Sampling.IncludeDstInSrc = true
	}
	if cfg.Store.Feats != nil && cfg.Labels == nil {
		return nil, fmt.Errorf("engine: a store with features trains, which needs labels")
	}

	for _, d := range tr.Ranks() {
		if d < 0 || d >= n {
			return nil, fmt.Errorf("engine: transport rank %d outside [0, %d)", d, n)
		}
		m := cfg.NewModel()
		m.Init(graph.NewRNG(cfg.Seed)) // identical replicas
		var opt nn.Optimizer = nn.NewSGD(0.1)
		if cfg.NewOptimizer != nil {
			opt = cfg.NewOptimizer()
		}
		e.workers = append(e.workers, &worker{
			eng:     e,
			dev:     e.Group.Devices[d],
			model:   m,
			opt:     opt,
			sampler: sample.NewSampler(cfg.Graph, e.cfg.Sampling, graph.NewRNG(cfg.Seed^uint64(0x9e37+d*7919))),
			stats:   &WorkerStats{},
		})
	}
	e.epochRNG = graph.NewRNG(cfg.Seed ^ 0xabcdef)

	var err error
	if e.place, err = placementFor(e); err != nil {
		return nil, err
	}
	if e.place.shard {
		// Per-node read volume is one column shard, not the full row.
		cfg.Store.LoadDim = 0
		for c := 0; c < n; c++ {
			if lo, hi := e.place.columns(probe.Layers[0].InDim(), c, n); hi-lo > cfg.Store.LoadDim {
				cfg.Store.LoadDim = hi - lo
			}
		}
	}
	// Device memory: the configured feature cache occupies arena space
	// for the whole run (at the load width just settled).
	for d := 0; d < n; d++ {
		cacheBytes := int64(len(cfg.Store.CachedList(d))) * int64(4*cfg.Store.LoadDim)
		cacheBytes += int64(len(cfg.Store.QCachedList(d))) * tensor.QuantRowBytes(cfg.Store.LoadDim)
		e.Group.Devices[d].Alloc(cacheBytes)
	}
	if cfg.Store.Feats != nil && n > 1 {
		for _, w := range e.workers {
			w.gsync = newGradSync(w)
		}
	}
	if cfg.Spans != nil {
		for _, w := range e.workers {
			w.spanDev = cfg.Spans.AddTrack("device", fmt.Sprintf("dev%d", w.dev.ID))
		}
		for _, w := range e.workers {
			w.spanSmp = cfg.Spans.AddTrack("sampler", fmt.Sprintf("dev%d/sampler", w.dev.ID))
		}
		links := make([]*obs.Track, n) // nil (a no-op) for ranks hosted elsewhere
		for _, w := range e.workers {
			links[w.dev.ID] = cfg.Spans.AddTrack("comm", fmt.Sprintf("dev%d/comm", w.dev.ID))
		}
		e.Comm.Spans = links
		e.Comm.SpanBase = &e.spanBase
	}
	return e, nil
}

// Ranks returns the ranks (device IDs) this engine drives, ascending.
func (e *Engine) Ranks() []int { return e.Comm.Transport().Ranks() }

// worker returns hosted rank dev's worker; it panics for a rank driven
// by another process.
func (e *Engine) worker(dev int) *worker {
	for _, w := range e.workers {
		if w.dev.ID == dev {
			return w
		}
	}
	panic(fmt.Sprintf("engine: rank %d is not hosted by this engine (hosts %v)", dev, e.Ranks()))
}

// Model returns hosted rank dev's model replica (replicas stay
// identical across ranks after every step).
func (e *Engine) Model(dev int) *nn.Model { return e.worker(dev).model }

// seedPlan builds the epoch's per-device seed assignment: partition
// owners for SNP/DNP (paper §3.2), an even shuffle otherwise.
func (e *Engine) seedPlan() *sample.SeedPlan {
	if e.cfg.ForceSeedPlan != nil {
		return e.cfg.ForceSeedPlan
	}
	n := e.cfg.Platform.NumDevices()
	if e.cfg.Kind.NeedsPartition() {
		return sample.SplitByOwner(e.cfg.Seeds, e.cfg.Assign, n, e.epochRNG)
	}
	return sample.SplitEven(e.cfg.Seeds, n, e.epochRNG)
}

// RunEpoch executes one training epoch and returns its statistics.
func (e *Engine) RunEpoch() EpochStats {
	st, _ := e.RunEpochContext(context.Background())
	return st
}

// RunEpochContext executes one training epoch under ctx. Cancellation
// stops the epoch cleanly at the next synchronized step boundary: the
// decision is taken collectively (every worker exchanges its view of
// ctx before each step), so the lockstep collectives never deadlock on
// a worker that stopped early. The returned statistics cover the steps
// that actually ran; the error is ctx.Err() when the epoch was cut
// short, nil otherwise. A background (non-cancellable) context adds no
// per-step synchronization.
//
//apt:allow simclock EpochStats.WallSec reports the host's wall epoch time; nothing simulated or planned reads it
func (e *Engine) RunEpochContext(ctx context.Context) (EpochStats, error) {
	start := time.Now()
	e.Group.ResetClocks()
	for _, w := range e.workers {
		*w.stats = WorkerStats{}
		w.pipelinedSec = 0
		w.spanCursor = 0
		w.stopPrefetch.Store(false)
	}
	plan := e.seedPlan()
	nb := plan.NumBatches(e.cfg.BatchSize)
	comm.RunParallel(len(e.workers), func(i int) { e.workerEpoch(ctx, e.workers[i], plan, nb) })
	st := e.collectStats(nb)
	st.WallSec = time.Since(start).Seconds()
	if ctx.Err() == nil {
		e.epochsRun++
	}
	if e.cfg.Spans != nil {
		// Advance the trace time base by the serialized epoch time: every
		// device's per-epoch clock is bounded by it, so epochs never
		// overlap on the exported timeline.
		e.spanBase += st.EpochTime()
	}
	return st, ctx.Err()
}

// stopAgreed decides cancellation collectively: all workers exchange
// their view of ctx and stop if any of them saw it cancelled. Workers
// must call it at the same step boundaries.
func (e *Engine) stopAgreed(ctx context.Context, w *worker) bool {
	return e.Comm.AnyTrue(w.dev.ID, ctx.Err() != nil)
}

// batch is one sampled mini-batch on its way to a worker's compute
// loop, with the sampling cost already charged to the device.
type batch struct {
	seeds     []graph.NodeID
	mb        *sample.MiniBatch
	edges     int64
	sampleSec float64
}

// drawBatch produces w's mini-batch for one step — sampled, or looked
// up when the caller pre-sampled the epoch — and charges its sampling
// time. It runs on whichever goroutine owns w's sampler for the epoch:
// the worker itself when synchronous, its prefetcher when pipelined.
func (e *Engine) drawBatch(w *worker, plan *sample.SeedPlan, step int) batch {
	b := batch{seeds: plan.Batch(w.dev.ID, step, e.cfg.BatchSize)}
	if e.cfg.PreSampled != nil {
		b.mb = e.cfg.PreSampled[w.dev.ID][step]
		b.seeds = b.mb.Seeds
	} else {
		b.mb = w.sampler.Sample(b.seeds)
	}
	for _, blk := range b.mb.Blocks {
		b.edges += blk.NumEdges()
	}
	b.sampleSec = e.cfg.Platform.SampleTime(b.edges)
	w.dev.Charge(device.StageSample, b.sampleSec)
	return b
}

// workerEpoch drives one device through all synchronized steps. The
// synchronous and the pipelined epoch are this one loop; they differ in
// where the next batch comes from — drawn inline, after the workers
// agreed not to stop, or received from the worker's prefetch goroutine
// (pipeline.go) — and so in where the step lands on the simulated
// timeline.
func (e *Engine) workerEpoch(ctx context.Context, w *worker, plan *sample.SeedPlan, numBatches int) {
	cancellable := ctx.Done() != nil
	var ahead chan batch
	var sched *overlapSchedule
	if e.cfg.Pipeline {
		sched = newOverlapSchedule(w.dev, numBatches)
		ahead = make(chan batch, pipelineDepth) // the prefetch bound
		go e.runPrefetcher(w, plan, numBatches, ahead)
	}
	var clk device.Clock
	if w.spanDev != nil {
		clk = w.dev.Clock()
	}
	for step := 0; step < numBatches; step++ {
		// Agree before drawing: a synchronous stop leaves the sampler's
		// cursor at a step boundary.
		if cancellable && e.stopAgreed(ctx, w) {
			break
		}
		var b batch
		if ahead != nil {
			b = <-ahead
		} else {
			b = e.drawBatch(w, plan, step)
		}
		w.stats.SampledEdges += b.edges

		e.computeStep(w, plan, step, b.seeds, b.mb)
		if w.real() && e.cfg.PreSampled == nil {
			// The engine sampled this batch itself, and completing the
			// step's gradient sync means every worker is past its backward
			// pass (see gradSync.finish's causal argument) — no peer still
			// reads this batch's blocks through a shipped reference.
			// Recycling the block storage keeps the steady-state loop off
			// the allocator. Accounting mode has no such guarantee
			// (nothing real is exchanged), and pre-sampled batches belong
			// to the caller, so both skip it.
			b.mb.Recycle()
		}

		var sampleDone, computeStart float64
		if sched != nil {
			sampleDone, computeStart = sched.place(step, b.sampleSec)
			w.pipelinedSec = sched.computeDone[step]
		}
		if w.spanDev != nil {
			prev := clk
			clk = w.dev.Clock()
			d := clk.Sub(prev)
			base := e.spanBase
			if sched == nil {
				// Synchronous stages really do serialize on the device, so
				// laying them end to end on its track is the truth, not a
				// rendering choice.
				at := base + w.spanCursor
				sampleSec := d.At(device.StageSample)
				w.spanCursor = emitStepSpans(w.spanDev, w.spanDev, step, at, sampleSec, at+sampleSec, d, 0) - base
			} else {
				// The prefetcher charges the sample clock ahead of compute,
				// so the step's sampling time comes from the batch itself;
				// its span goes on the sampler track ending at sampleDone,
				// where sampling of step t+1 visibly overlaps compute of
				// step t.
				emitStepSpans(w.spanSmp, w.spanDev, step, base+sampleDone-b.sampleSec, b.sampleSec, base+computeStart, d, 0)
			}
		}
	}
	if ahead != nil {
		// Join the prefetcher. After a full epoch it has already closed the
		// channel; after an agreed stop the drain unblocks its pending send
		// so it sees the flag and quits (batches dropped here are simply
		// not recycled).
		w.stopPrefetch.Store(true)
		for range ahead {
		}
	}
}

// computeStep runs everything past sampling for one mini-batch: every
// layer's forward through its placement, the loss in real mode, every
// layer's backward top-down, and gradient synchronization. With the
// bucketed sync each layer's gradient bucket is launched as soon as its
// backward is done, so its ring transfer overlaps the layers below.
func (e *Engine) computeStep(w *worker, plan *sample.SeedPlan, step int, seeds []graph.NodeID, mb *sample.MiniBatch) {
	global := 0
	for d := range plan.PerWorker {
		global += len(plan.Batch(d, step, e.cfg.BatchSize))
	}
	w.stats.Layer1Dst += int64(mb.Layer1().NumDst())
	w.stats.SeedsProcessed += int64(len(seeds))

	layers := len(w.model.Layers)
	if cap(w.ctxs) < layers {
		w.ctxs = make([]*layerCtx, layers)
	}
	ctxs := w.ctxs[:layers]
	var h *tensor.Matrix
	for l := range ctxs {
		h, ctxs[l] = e.placementAt(l).forward(w, mb, l, h)
	}

	var dLogits *tensor.Matrix
	if w.real() {
		if cap(w.labelBuf) < len(seeds) {
			w.labelBuf = make([]int32, len(seeds))
		}
		labels := w.labelBuf[:len(seeds)]
		for i, s := range seeds {
			labels[i] = e.cfg.Labels[s]
		}
		var loss float64
		loss, dLogits = nn.SoftmaxCrossEntropy(h, labels, max(global, 1))
		w.stats.LossSum += loss
	}
	if w.gsync != nil {
		w.gsync.beginStep()
	}
	// held is the gradient a communicating backward read: a peer may
	// still read it through a shipped reference until the step's sync
	// completes. A local backward's input goes back to the pool at once.
	var held *tensor.Matrix
	d := dLogits
	for l := layers - 1; l >= 0; l-- {
		p := e.placementAt(l)
		if w.gsync != nil && !p.backwardIsLocal() {
			// This backward issues collectives of its own; the in-flight
			// buckets must complete first so only one goroutine per rank
			// touches the transport at a time.
			w.gsync.drainInFlight()
		}
		dIn := p.backward(w, mb, l, ctxs[l], d)
		if p.backwardIsLocal() {
			tensor.Put(d)
		} else {
			held = d
		}
		if w.gsync != nil {
			w.gsync.launchLayer(l)
		}
		d = dIn
	}
	if w.gsync != nil {
		w.gsync.finish()
	} else {
		e.syncGradients(w)
	}
	if w.real() {
		w.opt.Step(w.model.Params())
		w.model.ZeroGrad()
		// Completing the step's gradient sync guarantees every worker is
		// past this step's backward (each peer's final ring hop happens
		// after it launched its last bucket, which follows its backward;
		// at world 1 there are no peers), so no peer still reads any of
		// the step's tensors through a shipped reference — the whole
		// forward/backward working set can go back to the pool. Without
		// this the activations are the loop's steadiest garbage, and the
		// GC they force keeps flushing the very pools the kernels rely
		// on for allocation-free steady state.
		for _, c := range ctxs[1:] {
			tensor.Put(c.h)
		}
		tensor.Put(h)
		tensor.Put(held)
	}
	clear(ctxs)
}

// syncGradients is the unbucketed gradient synchronization: one flat
// allreduce per step, charged to the train stage. Accounting mode always
// charges this single collective; real mode reaches it only at world 1
// (multi-device real runs use the bucketed overlapped gradSync), where
// the sum over one rank is the gradient itself, so no data moves.
func (e *Engine) syncGradients(w *worker) {
	total := w.model.NumParamElements()
	// Record the gradient-sync cost explicitly even on this path: the
	// whole collective is exposed (nothing hides it), so GradExposedSec
	// == GradCommSec here. Their readers are the apt_engine_grad_*
	// gauges and the benchmark's comm.grad_exposed_share, which set a
	// bucketed run's measured overlap beside this fully exposed charge.
	sec, _ := e.Comm.AllReduceModel(total)
	w.stats.GradCommSec += sec
	w.stats.GradExposedSec += sec
	e.Comm.AllReduce(w.dev.ID, device.StageTrain, nil, int64(total)*4)
}
