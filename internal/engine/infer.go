package engine

import (
	"fmt"
	"sync/atomic"

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
//
// The same holds one level up. The inferencer samples with keyed draws
// (sample.Sampler.SetKey): in draw k, node v's neighbours at layer l
// are a function of (Seed^k, l, v), and every kernel gives each output
// row its own accumulators, so a draw's logits for v are one fixed set
// of bits per generation, whatever batch or worker computes them. An
// answer is the mean of as many draws as it takes for their trees
// together to hold the node's neighbourhood — ⌈degree / F⌉, where F,
// the product of the fanouts, is what one draw's whole tree holds —
// and at most four. Most nodes have degree at most F and get one draw;
// a hub gets more. One draw of a hub's neighbourhood is a small sample
// of it, which can decide the hub's class by a coin flip every later
// request would repeat, and under degree-skewed traffic (the paper's
// Table 3) the hubs are the nodes asked most; the mean estimates the
// expected prediction that per-request resampling used to average
// towards. A hub pays its extra draws once per generation. Answer then keeps each answer: each
// distinct feature view has an answer table beside its projection
// table, filled by the first batch that computes a node and read by
// every later one, so a node is sampled, loaded and computed at most
// once per generation. A table is N × out floats (the feature matrix
// scaled by out / featDim), of which only the answered nodes' rows are
// ever touched.

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
	// fanouts. Node-wise draws are keyed by (Seed, draw, layer, node),
	// so every answer is deterministic.
	Sampling sample.Config
	// Workers bounds the pool size; 0 or negative selects one worker
	// per platform device, larger values are clamped.
	Workers int
	Seed    uint64
}

// Inferencer is a pool of inference workers over the simulated devices.
type Inferencer struct {
	cfg InferConfig
	// treeNodes is what one draw's tree holds, the product of the
	// fanouts; 0 under Full sampling, where every draw is the same.
	treeNodes int
	group     *device.Group
	workers   []*InferWorker
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
	// view; read-only once built. answers is the same view's answer
	// table, shared likewise and filled as nodes are answered.
	table   *tensor.Matrix
	answers *answerTable
	// rows is the batch's per-edge table row, Src[SrcIdx[e]], for the
	// pre-summing layers; miss and missAt are an Answer batch's seeds
	// missing from the answer table and their rows in the batch, hub
	// and hubAt the misses a later draw runs over and their rows among
	// the misses. All are reused across batches.
	rows   []int32
	miss   []graph.NodeID
	missAt []int32
	hub    []graph.NodeID
	hubAt  []int32
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
	inf := &Inferencer{cfg: cfg, group: device.NewGroup(cfg.Platform)}
	if cfg.Sampling.Method != sample.Full {
		inf.treeNodes = 1
		for _, f := range cfg.Sampling.Fanouts {
			inf.treeNodes *= f
		}
	}
	all := tensor.Iota(cfg.Store.Feats.Rows)
	layer0, out := cfg.Model.Layers[0], cfg.Model.Layers[len(cfg.Model.Layers)-1].OutDim()
	// One projection and one answer table per distinct feature view:
	// every device without an int8 warm tier reads the fp32 master and
	// shares them; a device with a tier reads its own dequantized rows
	// and gets its own.
	var master *InferWorker
	for w := 0; w < n; w++ {
		dev := inf.group.Devices[w]
		view := cfg.Store.FeatView(dev.ID)
		iw := &InferWorker{inf: inf, dev: dev, sampler: sample.NewSampler(cfg.Graph, cfg.Sampling, graph.NewRNG(cfg.Seed))}
		if view.Q == nil && master != nil {
			iw.table, iw.answers = master.table, master.answers
		} else {
			iw.table = layer0.ProjectCols(view, all, 0, layer0.InDim())
			iw.answers = newAnswerTable(len(all), out)
		}
		if view.Q == nil && master == nil {
			master = iw
		}
		inf.workers = append(inf.workers, iw)
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

// Answer returns the answers for seeds: row i holds seeds[i]'s logits,
// the mean of its keyed draws (one for most nodes, up to four for a
// hub; see draws). It reads every seed some worker over the same
// feature view has answered before in this generation from the answer
// table and computes only the others: it samples, loads, charges and
// runs the forward of each draw for the misses alone (through Infer's
// path, spans included) and publishes their rows. A hit holds exactly
// the bits recomputing would give, because keyed sampling makes an
// answer a function of (generation, node). hits counts the seeds read
// from the table; st covers the misses' draws. The logits are
// pool-backed, as Infer's.
func (w *InferWorker) Answer(seeds []graph.NodeID) (logits *tensor.Matrix, st cache.LoadStats, hits int) {
	logits = tensor.Get(len(seeds), w.answers.cols)
	w.miss, w.missAt = w.miss[:0], w.missAt[:0]
	for i, v := range seeds {
		if !w.answers.load(v, logits.Row(i)) {
			w.miss = append(w.miss, v)
			w.missAt = append(w.missAt, int32(i))
		}
	}
	if len(w.miss) > 0 {
		var computed *tensor.Matrix
		computed, st = w.answer(w.miss)
		for j, v := range w.miss {
			copy(logits.Row(int(w.missAt[j])), computed.Row(j))
			w.answers.store(v, computed.Row(j))
		}
		tensor.Put(computed)
	}
	return logits, st, len(seeds) - len(w.miss)
}

// maxDraws bounds the keyed draws an answer averages.
const maxDraws = 4

// draws is how many keyed draws answer v: ⌈degree / treeNodes⌉, so
// that their trees together could hold v's neighbourhood, between one
// and maxDraws.
func (inf *Inferencer) draws(v graph.NodeID) int {
	if inf.treeNodes <= 0 {
		return 1
	}
	d := inf.cfg.Graph.Degree(v)
	return min(maxDraws, max(1, (d+inf.treeNodes-1)/inf.treeNodes))
}

// answer computes seeds' answers: the sum of each seed's first
// draws(v) keyed draws, in draw order, divided by their number. Draw k
// runs over the seeds that need more than k draws — after the first,
// the hubs alone. The result is pool-backed and owned by the caller.
func (w *InferWorker) answer(seeds []graph.NodeID) (*tensor.Matrix, cache.LoadStats) {
	a, st := w.draw(0, seeds)
	for k := 1; k < maxDraws; k++ {
		w.hub, w.hubAt = w.hub[:0], w.hubAt[:0]
		for i, v := range seeds {
			if w.inf.draws(v) > k {
				w.hub = append(w.hub, v)
				w.hubAt = append(w.hubAt, int32(i))
			}
		}
		if len(w.hub) == 0 {
			break
		}
		b, stb := w.draw(k, w.hub)
		st.Add(stb)
		for j, i := range w.hubAt {
			ra, rb := a.Row(int(i)), b.Row(j)
			for x := range ra {
				ra[x] += rb[x]
			}
		}
		tensor.Put(b)
	}
	for i, v := range seeds {
		if n := w.inf.draws(v); n > 1 {
			ra := a.Row(i)
			for x := range ra {
				ra[x] /= float32(n)
			}
		}
	}
	return a, st
}

// Infer runs seeds' first keyed draw: it samples the mini-batch, loads
// input features through the unified store (charging simulated
// sample/load/train time to the worker's device), and runs the model's
// inference-only forward. It returns the logits (row i is seeds[i]'s;
// pool-backed — the caller should tensor.Put them when done) and the
// batch's feature-load statistics, whose location counts give the
// cache hit rate.
func (w *InferWorker) Infer(seeds []graph.NodeID) (*tensor.Matrix, cache.LoadStats) {
	return w.draw(0, seeds)
}

// draw is Infer for keyed draw k, whose neighbourhoods are a function
// of (Seed^k, layer, node).
func (w *InferWorker) draw(k int, seeds []graph.NodeID) (*tensor.Matrix, cache.LoadStats) {
	w.sampler.SetKey(w.inf.cfg.Seed ^ uint64(k))
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
	if w.inf.cfg.Model.Layers[0].PreSums() {
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

// Answer-table slot states: a slot goes empty → filling → ready once
// and never back.
const (
	answerEmpty uint32 = iota
	answerFilling
	answerReady
)

// answerTable holds one generation's logits per node for one feature
// view. A worker claims an empty slot by CAS, copies its row in, then
// marks it ready; a reader copies only ready rows. Two workers racing
// on one node therefore never write the same row, and the loser — like
// a reader that finds the slot filling — keeps its own computed row,
// which has the same bits.
type answerTable struct {
	cols  int
	rows  []float32
	state []atomic.Uint32
}

// newAnswerTable returns an empty table for n nodes of cols logits.
// Fresh pages are touched only as rows are filled; memory reused from
// the heap is zeroed here.
func newAnswerTable(n, cols int) *answerTable {
	return &answerTable{cols: cols, rows: make([]float32, n*cols), state: make([]atomic.Uint32, n)}
}

// load copies v's answer into dst and reports whether it was ready.
//
//apt:hotpath
func (a *answerTable) load(v graph.NodeID, dst []float32) bool {
	if a.state[v].Load() != answerReady {
		return false
	}
	copy(dst, a.row(v))
	return true
}

// store publishes row as v's answer unless another worker has claimed
// v first.
//
//apt:hotpath
func (a *answerTable) store(v graph.NodeID, row []float32) {
	if !a.state[v].CompareAndSwap(answerEmpty, answerFilling) {
		return
	}
	copy(a.row(v), row)
	a.state[v].Store(answerReady)
}

// row is v's slot in the table.
func (a *answerTable) row(v graph.NodeID) []float32 {
	return a.rows[int(v)*a.cols : (int(v)+1)*a.cols]
}
