// Package job is the one description of a training job above
// core.Task: a dataset preset, a model, a sampler and a device count,
// as the CLIs' shared flags or a struct literal, turned into the
// (*dataset.Dataset, core.Task) pair every driver starts from. What
// the drivers agree on (cache budget, uniform fanouts, the model
// closure, Adam in real mode, the single-machine platform) lives here;
// what they choose differently (seed, dataset tuning, a multi-machine
// platform) stays an argument or a field the caller sets on the result.
package job

import (
	"flag"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/sample"
)

// cacheFraction is each GPU's feature-cache budget as a fraction of
// the dataset's feature bytes (the paper's 4 GB per T4 against
// 52.9-128 GB of features is roughly 3-8%).
const cacheFraction = 0.08

// Spec describes a job.
type Spec struct {
	Data    string  // dataset preset: PS, FS or IM
	Scale   float64 // dataset scale multiplier
	Model   string  // "sage" (also "") or "gat"
	Hidden  int     // hidden dimension (per head for gat)
	Heads   int     // attention heads (gat)
	Layers  int     // GNN layers
	Fanout  int     // neighbors sampled per layer
	Batch   int     // per-GPU batch size; 0 selects 64, below 0 is refused
	LR      float64 // Adam learning rate (real mode)
	Devices int     // GPUs of the single-machine platform
}

// Flags registers the shared job flags on fs and returns the Spec they
// fill once fs is parsed.
func Flags(fs *flag.FlagSet) *Spec {
	s := &Spec{}
	fs.StringVar(&s.Data, "data", "FS", "dataset preset: PS, FS, or IM")
	fs.Float64Var(&s.Scale, "scale", 0.1, "dataset scale multiplier")
	fs.StringVar(&s.Model, "model", "sage", "model: sage or gat")
	fs.IntVar(&s.Hidden, "hidden", 32, "hidden dimension (per head for gat)")
	fs.IntVar(&s.Heads, "heads", 4, "attention heads (gat)")
	fs.IntVar(&s.Layers, "layers", 2, "GNN layers")
	fs.IntVar(&s.Fanout, "fanout", 10, "neighbors sampled per layer")
	fs.IntVar(&s.Batch, "batch", 64, "per-GPU batch size")
	fs.Float64Var(&s.LR, "lr", 0.01, "Adam learning rate")
	fs.IntVar(&s.Devices, "devices", 4, "GPUs (the world size of a multi-process job)")
	return s
}

// Check refuses the flag values no job runs with: fewer than one
// device, or a learning rate that is not finite and positive. Both
// binaries call it right after flag.Parse, so the refusal comes before
// any dataset is built; the other fields are judged where the job is.
func (s Spec) Check() error {
	switch {
	case s.Devices < 1:
		return fmt.Errorf("-devices %d: need at least one device", s.Devices)
	case !validLR(s.LR):
		return fmt.Errorf("-lr %v: need a finite learning rate above 0", s.LR)
	}
	return nil
}

// validLR reports whether lr is finite and above 0 at the float32
// precision Adam runs at.
func validLR(lr float64) bool {
	f := float64(float32(lr))
	return f > 0 && !math.IsInf(f, 1)
}

// Build materializes the preset — with features and labels when real,
// graph only for accounting mode — and assembles the task over it.
// tune, when non-nil, adjusts the preset before generation (homophily,
// class count, feature width).
func (s Spec) Build(real bool, seed uint64, tune func(*dataset.Spec)) (*dataset.Dataset, core.Task, error) {
	spec, err := dataset.ByAbbr(s.Data, s.Scale)
	if err != nil {
		return nil, core.Task{}, err
	}
	if tune != nil {
		tune(&spec)
	}
	ds := dataset.Build(spec, real)
	task, err := s.Task(ds, seed)
	return ds, task, err
}

// Task assembles the task over an already built dataset: real mode
// (features, labels, Adam at LR, which must pass Check's rule) when ds
// carries features, accounting mode otherwise. The platform is one
// machine with Devices GPUs; a caller training on another sets
// Task.Platform on the result.
func (s Spec) Task(ds *dataset.Dataset, seed uint64) (core.Task, error) {
	in, hidden, heads, classes, layers := ds.FeatDim, s.Hidden, s.Heads, ds.Classes, s.Layers
	var newModel func() *nn.Model
	switch s.Model {
	case "sage", "":
		newModel = func() *nn.Model { return nn.NewGraphSAGE(in, hidden, classes, layers) }
	case "gat":
		newModel = func() *nn.Model { return nn.NewGAT(in, hidden, heads, classes, layers) }
	default:
		return core.Task{}, fmt.Errorf("job: unknown model %q (sage or gat)", s.Model)
	}
	if layers < 1 {
		return core.Task{}, fmt.Errorf("job: %d layers", layers)
	}
	// A negative width would reach make in nn.NewParam; zero is
	// core.normalize's to judge (a one-layer model uses neither).
	for _, w := range []struct {
		name string
		v    int
	}{{"hidden", hidden}, {"heads", heads}, {"batch", s.Batch}} {
		if w.v < 0 {
			return core.Task{}, fmt.Errorf("job: %s %d is negative", w.name, w.v)
		}
	}
	fanouts := make([]int, layers)
	for i := range fanouts {
		fanouts[i] = s.Fanout
	}
	task := core.Task{
		Graph:      ds.Graph,
		FeatDim:    in,
		Seeds:      ds.TrainSeeds,
		NewModel:   newModel,
		Sampling:   sample.Config{Fanouts: fanouts},
		BatchSize:  s.Batch,
		Platform:   hardware.WithDevices(hardware.SingleMachine8GPU(), 1, s.Devices),
		CacheBytes: ds.CacheBytesFraction(cacheFraction),
		Seed:       seed,
	}
	if task.BatchSize <= 0 {
		task.BatchSize = 64
	}
	if ds.Feats != nil {
		if !validLR(s.LR) {
			return core.Task{}, fmt.Errorf("job: learning rate %v: need a finite learning rate above 0", s.LR)
		}
		lr := float32(s.LR)
		task.Feats = ds.Feats
		task.Labels = ds.Labels
		task.NewOptimizer = func() nn.Optimizer { return nn.NewAdam(lr) }
	}
	return task, nil
}
