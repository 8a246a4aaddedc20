// Package core implements the APT system of the paper: given the
// specifics of a GNN training task (graph, model, sampling algorithm,
// hardware platform), it measures communication-operator speeds
// (Prepare), dry-runs one epoch to collect data-dependent statistics
// and applies cost models to pick the fastest parallelization strategy
// (Plan), configures the unified execution engine and feature store
// for the chosen strategy (Adapt), and trains (Run).
package core

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/sample"
	"repro/internal/tensor"
)

// Task is the user-facing specification of a GNN training job.
type Task struct {
	// Graph is the data graph (in-neighbor CSR).
	Graph *graph.Graph
	// Feats is the input feature matrix, one row per node; nil runs
	// the task in accounting mode (timing only).
	Feats *tensor.Matrix
	// FeatDim is the input feature dimension (required; must match
	// Feats when present).
	FeatDim int
	// Labels are node classes, one per node, each below the last
	// layer's OutDim (required when Feats is present).
	Labels []int32
	// Seeds are the training seed nodes, each a node of Graph.
	Seeds []graph.NodeID
	// NewModel constructs the GNN model (DGL/PyG stand-in). The model's
	// first-layer input dimension must equal FeatDim.
	NewModel func() *nn.Model
	// NewOptimizer constructs the per-replica optimizer; nil => SGD.
	NewOptimizer func() nn.Optimizer
	// Sampling is the graph-sampling configuration (fanouts).
	Sampling sample.Config
	// BatchSize is the per-GPU mini-batch size (paper default 1024).
	BatchSize int
	// Platform describes the hardware.
	Platform *hardware.Platform
	// CacheBytes is the per-GPU feature-cache budget; 0 uses the
	// platform default, below 0 is refused.
	CacheBytes int64
	// CPUCacheBytes is per-machine excess CPU memory used to replicate
	// hot remote features (paper footnote 3); 0 disables. Only
	// meaningful on multi-machine platforms.
	CPUCacheBytes int64
	// Int8CacheFrac is the fraction of CacheBytes given to the int8
	// warm tier (0 disables tiering; must be < 1). The warm tier
	// extends cache coverage below the fp32 hot band: a row it holds
	// is served from GPU memory at quantized byte volume and
	// dequantized inside the consuming kernel, instead of crossing
	// the host link at full width.
	Int8CacheFrac float64
	// ProfileOverride pins the communication-operator profile instead
	// of measuring it in Prepare. The re-planning ablation uses it to
	// hand the planner a mis-ranked profile and show the calibrated
	// re-planner recovering.
	ProfileOverride *comm.Profile
	// Partition supplies a precomputed partitioning — the paper's
	// offline DGL-style partitioning step, done once per graph and
	// reused across tasks (the experiments' cache and the benchmark's
	// set-ups do this); when nil, Prepare runs the multilevel
	// partitioner.
	Partition *partition.Partitioning
	// CachePolicyOverride pins one cache policy for every strategy
	// (nil uses the paper's per-strategy rules); the cache-policy
	// ablation sets it to the degree-based PaGraph baseline.
	CachePolicyOverride *cache.Policy
	// Pipeline runs training epochs with per-worker sampling prefetch
	// overlapped against compute (engine.Config.Pipeline); epoch stats
	// then carry the measured overlapped time.
	Pipeline bool
	// Seed drives all randomness.
	Seed uint64
}

// normalize fills defaults and validates.
func (t *Task) normalize() error {
	if t.Graph == nil || t.Graph.NumNodes() == 0 {
		return fmt.Errorf("core: task has no graph")
	}
	if t.NewModel == nil {
		return fmt.Errorf("core: task has no model")
	}
	if len(t.Seeds) == 0 {
		return fmt.Errorf("core: task has no training seeds")
	}
	if t.Platform == nil {
		return fmt.Errorf("core: task has no platform")
	}
	if err := t.Platform.Validate(); err != nil {
		return err
	}
	if t.BatchSize <= 0 {
		t.BatchSize = 1024
	}
	if t.CacheBytes < 0 {
		return fmt.Errorf("core: CacheBytes %d is negative", t.CacheBytes)
	}
	if t.CPUCacheBytes < 0 {
		return fmt.Errorf("core: CPUCacheBytes %d is negative", t.CPUCacheBytes)
	}
	if t.CacheBytes == 0 {
		t.CacheBytes = t.Platform.DefaultCacheBytes
	}
	if len(t.Sampling.Fanouts) == 0 {
		return fmt.Errorf("core: task has no sampling fanouts")
	}
	for i, f := range t.Sampling.Fanouts {
		if f < 0 {
			return fmt.Errorf("core: Sampling.Fanouts[%d] = %d is negative", i, f)
		}
	}
	probe := t.NewModel()
	if len(probe.Layers) != len(t.Sampling.Fanouts) {
		return fmt.Errorf("core: model has %d layers but %d fanouts",
			len(probe.Layers), len(t.Sampling.Fanouts))
	}
	// A layer without parameter values (no attention heads, a zero
	// width) would train nothing; its dimensions are not even defined.
	for i, l := range probe.Layers {
		ps := l.Params()
		if len(ps) == 0 || slices.ContainsFunc(ps, func(p *nn.Param) bool { return len(p.W.Data) == 0 }) {
			return fmt.Errorf("core: %s layer %d has no parameter values", probe.Name, i)
		}
	}
	if t.FeatDim == 0 && t.Feats != nil {
		t.FeatDim = t.Feats.Cols
	}
	if t.FeatDim != probe.Layers[0].InDim() {
		return fmt.Errorf("core: feature dim %d != model input dim %d",
			t.FeatDim, probe.Layers[0].InDim())
	}
	if t.Feats != nil && t.Feats.Cols != t.FeatDim {
		return fmt.Errorf("core: feature matrix width %d != FeatDim %d", t.Feats.Cols, t.FeatDim)
	}
	if t.Feats != nil && t.Labels == nil {
		return fmt.Errorf("core: real-mode task needs labels")
	}
	if err := t.checkData(probe.Layers[len(probe.Layers)-1].OutDim()); err != nil {
		return err
	}
	if t.Int8CacheFrac < 0 || t.Int8CacheFrac >= 1 {
		return fmt.Errorf("core: Int8CacheFrac %v outside [0, 1)", t.Int8CacheFrac)
	}
	return nil
}

// checkData refuses node data that do not fit the graph: a feature
// matrix or label slice of another length, a label outside the model's
// classes, a seed that is not a node. Each would otherwise panic
// mid-epoch, or — a feature matrix re-sliced from a larger one — train
// on rows past its declared shape.
func (t *Task) checkData(classes int) error {
	n := t.Graph.NumNodes()
	if f := t.Feats; f != nil && (f.Rows != n || len(f.Data) != f.Rows*f.Cols) {
		return fmt.Errorf("core: Feats is %d x %d with %d values, the graph has %d nodes", f.Rows, f.Cols, len(f.Data), n)
	}
	if t.Labels != nil && len(t.Labels) != n {
		return fmt.Errorf("core: Labels has %d entries, the graph has %d nodes", len(t.Labels), n)
	}
	for v, c := range t.Labels {
		if c < 0 || int(c) >= classes {
			return fmt.Errorf("core: Labels[%d] = %d outside the model's %d classes", v, c, classes)
		}
	}
	for i, s := range t.Seeds {
		if s < 0 || int(s) >= n {
			return fmt.Errorf("core: Seeds[%d] = %d is not a node of the %d-node graph", i, s, n)
		}
	}
	return nil
}
