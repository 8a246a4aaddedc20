package engine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/tensor"
)

// Online inference over the unified engine's real-mode dataflow: the
// same sampler produces bipartite blocks, the same unified feature
// store serves the input features (hitting the hotness caches and
// charging simulated load time per the paper's position rules), and
// the model runs its inference-only forward on a simulated device.
// Each InferWorker owns one device and one sampler; the serving layer
// drives one goroutine per worker.
//
// Layer 0 projects before it aggregates (paper Eq. 1), and with the
// weights fixed the projection of a node's features depends on the
// node alone. An Inferencer therefore projects every feature row once,
// at construction, into a table per distinct feature view, and each
// batch runs only layer 0's sparse half over the table rows it
// samples. The GEMM kernels give each output element one accumulator
// over k in order whatever rows share its block (DESIGN decision 13),
// so a table row holds exactly what the per-batch projection computed
// and every answer is bit-identical to PredictGathered. The simulated
// device still charges the per-batch projection: it models the
// paper's GPU, which runs it.

// InferConfig assembles everything an inference pool needs. The Store
// must hold real features and be fully configured — host placement and
// every device's cache tiers — before NewInferencer: the projection
// tables are built from the feature views the store has then, so a
// warm tier installed afterwards would not reach the answers.
type InferConfig struct {
	Platform *hardware.Platform
	Graph    *graph.Graph
	// Store is the unified feature store; Feats must be non-nil.
	Store *cache.Store
	// Model is the trained model shared by all workers. Inference only
	// reads its parameters, so sharing one replica is safe.
	Model *nn.Model
	// Sampling configures neighbor sampling; IncludeDstInSrc is forced
	// on when the model needs it. Serving typically uses the training
	// fanouts (or sample.Full for deterministic answers).
	Sampling sample.Config
	// Workers bounds the pool size; 0 or negative selects one worker
	// per platform device, larger values are clamped.
	Workers int
	Seed    uint64
}

// Inferencer is a pool of inference workers over the simulated devices.
type Inferencer struct {
	cfg     InferConfig
	layer0  nn.SplitLayer
	group   *device.Group
	workers []*InferWorker
}

// InferWorker executes inference mini-batches on one simulated device.
// A worker's methods must be driven by a single goroutine at a time;
// distinct workers run concurrently.
type InferWorker struct {
	inf     *Inferencer
	dev     *device.Device
	sampler *sample.Sampler
	// table holds layer 0's projection of every feature row of the
	// worker's feature view, shared with the workers reading the same
	// view; read-only once built.
	table *tensor.Matrix
	// rows is the batch's per-edge table row, Src[SrcIdx[e]], for the
	// pre-summing layers; reused across batches.
	rows []int32
	// span, when non-nil, receives one sample/load/train span per batch
	// on the worker's serialized device clock, where spanAt is the
	// last batch's end; batchSeq numbers the batches.
	span     *obs.Track
	spanAt   float64
	batchSeq int
}

// NewInferencer validates the configuration and builds the worker pool.
func NewInferencer(cfg InferConfig) (*Inferencer, error) {
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if cfg.Store == nil || cfg.Store.Feats == nil {
		return nil, fmt.Errorf("engine: inference requires a feature store with real features")
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("engine: nil model")
	}
	if cfg.Graph == nil {
		return nil, fmt.Errorf("engine: nil graph")
	}
	if len(cfg.Model.Layers) == 0 {
		return nil, fmt.Errorf("engine: model %q has no layers", cfg.Model.Name)
	}
	layer0, ok := cfg.Model.Layers[0].(nn.SplitLayer)
	if !ok {
		return nil, fmt.Errorf("engine: first layer %T of model %q does not implement nn.SplitLayer", cfg.Model.Layers[0], cfg.Model.Name)
	}
	if len(cfg.Sampling.Fanouts) != len(cfg.Model.Layers) {
		return nil, fmt.Errorf("engine: %d fanouts for %d model layers",
			len(cfg.Sampling.Fanouts), len(cfg.Model.Layers))
	}
	if cfg.Model.NeedsDstInSrc() {
		cfg.Sampling.IncludeDstInSrc = true
	}
	n := cfg.Platform.NumDevices()
	if cfg.Workers > 0 && cfg.Workers < n {
		n = cfg.Workers
	}
	inf := &Inferencer{cfg: cfg, layer0: layer0, group: device.NewGroup(cfg.Platform)}
	all := make([]int32, cfg.Store.Feats.Rows)
	for v := range all {
		all[v] = int32(v)
	}
	// One table per distinct feature view: every device without an
	// int8 warm tier reads the fp32 master and shares one; a device
	// with a tier reads its own dequantized rows and gets its own.
	var master *tensor.Matrix
	for w := 0; w < n; w++ {
		dev := inf.group.Devices[w]
		view := cfg.Store.FeatView(dev.ID)
		table := master
		if view.Q != nil || master == nil {
			table = layer0.ProjectCols(view, all, 0, layer0.InDim())
		}
		if view.Q == nil {
			master = table
		}
		inf.workers = append(inf.workers, &InferWorker{
			inf:   inf,
			dev:   dev,
			table: table,
			sampler: sample.NewSampler(cfg.Graph, cfg.Sampling,
				graph.NewRNG(cfg.Seed^uint64(0x51e+w*7919))),
		})
	}
	return inf, nil
}

// AttachSpans gives every worker a span track in c; each inference
// batch then emits sample/load/train spans positioned on the worker's
// serialized device clock. Call before any Infer runs.
func (inf *Inferencer) AttachSpans(c *obs.Collector) {
	for i, w := range inf.workers {
		w.span = c.AddTrack("infer", fmt.Sprintf("worker%d", i))
		w.spanAt = w.dev.TotalElapsed()
	}
}

// NumWorkers returns the pool size.
func (inf *Inferencer) NumWorkers() int { return len(inf.workers) }

// Worker returns worker w.
func (inf *Inferencer) Worker(w int) *InferWorker { return inf.workers[w] }

// SimSeconds returns the total simulated seconds accumulated across
// all workers' device clocks since construction.
func (inf *Inferencer) SimSeconds() float64 {
	var s float64
	for _, w := range inf.workers {
		s += w.dev.TotalElapsed()
	}
	return s
}

// Device returns the worker's simulated device.
func (w *InferWorker) Device() *device.Device { return w.dev }

// Infer samples the mini-batch for seeds, loads input features through
// the unified store (charging simulated sample/load/train time to the
// worker's device), and runs the model's inference-only forward.
// It returns the logits (row i answers seeds[i]; pool-backed — the
// caller should tensor.Put them when done) and the batch's feature-load
// statistics, whose location counts give the cache hit rate.
func (w *InferWorker) Infer(seeds []graph.NodeID) (*tensor.Matrix, cache.LoadStats) {
	var clk device.Clock
	if w.span != nil {
		clk = w.dev.Clock()
	}
	mb := w.sampler.Sample(seeds)
	var edges int64
	for _, b := range mb.Blocks {
		edges += b.NumEdges()
	}
	w.dev.Charge(device.StageSample, w.inf.cfg.Platform.SampleTime(edges))
	st := w.inf.cfg.Store.Charge(w.dev, mb.Layer1().Src)
	for l, layer := range w.inf.cfg.Model.Layers {
		blk := mb.Blocks[l]
		dense, sparse := layer.FLOPs(int64(blk.NumSrc()), int64(layer.InDim()), blk.NumEdges())
		w.dev.Charge(device.StageTrain, w.inf.cfg.Platform.DenseTime(dense))
		w.dev.Charge(device.StageTrain, w.inf.cfg.Platform.SparseTime(sparse))
	}
	logits := w.inf.cfg.Model.PredictProjected(mb, w.project(mb.Layer1()))
	if w.span != nil {
		d := w.dev.Clock().Sub(clk)
		loadBytes := int64(mb.Layer1().NumSrc()) * int64(w.inf.cfg.Store.Dim) * 4
		sampleSec := d.At(device.StageSample)
		w.spanAt = emitStepSpans(w.span, w.span, w.batchSeq, w.spanAt, sampleSec, w.spanAt+sampleSec, d, loadBytes)
		w.batchSeq++
	}
	return logits, st
}

// project assembles layer 0's Finish input for blk from the worker's
// table, as the engine's placements assemble it from shipped
// projections: the per-destination sums of the sources' table rows
// when the layer pre-sums, every source's table row otherwise. The
// result is pool-backed and owned by the caller.
func (w *InferWorker) project(blk *sample.Block) *tensor.Matrix {
	if w.inf.layer0.PreSums() {
		w.rows = w.rows[:0]
		for _, s := range blk.SrcIdx {
			w.rows = append(w.rows, blk.Src[s])
		}
		return tensor.SegmentSum(blk.EdgePtr, w.rows, w.table)
	}
	z := tensor.Get(blk.NumSrc(), w.table.Cols)
	for i, v := range blk.Src {
		copy(z.Row(i), w.table.Row(int(v)))
	}
	return z
}
