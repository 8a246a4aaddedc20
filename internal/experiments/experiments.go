// Package experiments regenerates every table and figure of the
// paper's evaluation (§5) on the simulated platform. Each experiment
// returns a plain-text report; cmd/aptbench prints them. Absolute
// times are simulated seconds on the modeled T4 platform; the
// reproduction target is the qualitative shape (which strategy wins
// where, and that APT picks at or near the optimum).
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/job"
	"repro/internal/partition"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// Options scales the experiments. The defaults reproduce the paper's
// configurations scaled ~1000x down (graphs, batch size, GPU memory
// all shrunk together so the working-set-to-cache ratios match).
type Options struct {
	// Scale multiplies the dataset preset sizes (1.0 = default).
	Scale float64
	// Devices is the single-machine GPU count (paper: 8).
	Devices int
	// Epochs measured per configuration (after the planner's dry-run).
	Epochs int
	// BatchSize per device (paper's 1024 scaled with the graphs).
	BatchSize int
}

// cacheFraction is each GPU's feature-cache budget as a fraction of
// total feature bytes (paper: 4 GB vs 52.9-128 GB ≈ 0.03-0.08).
const cacheFraction float64 = 0.08

// Defaults fills unset fields.
func (o Options) Defaults() Options {
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.Devices == 0 {
		o.Devices = 8
	}
	if o.Epochs == 0 {
		o.Epochs = 2
	}
	if o.BatchSize == 0 {
		o.BatchSize = 64
	}
	return o
}

// env caches built datasets and partitions across experiment configs.
type env struct {
	opts Options
	data map[string]*dataset.Dataset
	part map[string]*partition.Partitioning // keyed by abbr/devices/kind
}

// NewEnv prepares a reusable experiment environment.
func NewEnv(opts Options) *Env {
	o := opts.Defaults()
	return &Env{env{opts: o, data: map[string]*dataset.Dataset{}, part: map[string]*partition.Partitioning{}}}
}

// Env is the public handle for running experiments.
type Env struct{ env }

// Experiment pairs the id `aptbench -exp` takes with the Env method
// that produces the report.
type Experiment struct {
	ID  string
	Run func(*Env) (string, error)
}

// All lists every experiment in `aptbench -exp all` order. It is the
// only list of ids: aptbench dispatches on it and the smoke test
// ranges over it, so an experiment cannot exist without being run.
var All = []Experiment{
	{"tab1", (*Env).Table1},
	{"tab2", (*Env).Table2},
	{"tab3", (*Env).Table3},
	{"fig1", (*Env).Figure1},
	{"fig6", (*Env).Figure6},
	{"fig7", (*Env).Figure7},
	{"fig8a", (*Env).Figure8Hidden},
	{"fig8b", (*Env).Figure8Fanout},
	{"fig8c", (*Env).Figure8Cache},
	{"fig9", (*Env).Figure9},
	{"fig10", (*Env).Figure10},
	{"fig11", (*Env).Figure11},
	{"fig12", (*Env).Figure12},
	{"tab4", (*Env).Table4},
	{"ablation-fullcost", (*Env).AblationFullCost},
	{"ablation-dryrun", (*Env).AblationDryRunEpochs},
	{"ablation-cache", (*Env).AblationCachePolicy},
	{"ablation-pipeline", (*Env).AblationPipelining},
	{"ablation-replan", (*Env).AblationReplan},
	{"ext-nvlink", (*Env).ExtensionNVLink},
	{"ext-cpucache", (*Env).ExtensionCPUCache},
	{"ext-phase", (*Env).ExtensionPhaseDiagram},
}

// Dataset builds (and caches) a preset.
func (e *env) Dataset(abbr string) *dataset.Dataset {
	if d, ok := e.data[abbr]; ok {
		return d
	}
	spec, err := dataset.ByAbbr(abbr, e.opts.Scale)
	if err != nil {
		panic(err)
	}
	d := dataset.Build(spec, false)
	e.data[abbr] = d
	return d
}

// Partition builds (and caches) a partitioning of a dataset: the
// multilevel partitioner, or Fig. 11's random baseline.
func (e *env) Partition(abbr string, devices int, random bool) *partition.Partitioning {
	key := fmt.Sprintf("%s/%d/%t", abbr, devices, random)
	if p, ok := e.part[key]; ok {
		return p
	}
	d := e.Dataset(abbr)
	var p *partition.Partitioning
	if random {
		p = partition.Random(d.Graph, devices, 7)
	} else {
		p = partition.Multilevel(d.Graph, devices, partition.MultilevelConfig{Seed: 7, EdgeBalanced: true})
	}
	e.part[key] = p
	return p
}

// platformFor scales the paper's T4 platform to a dataset. GPU memory
// and the cache budget are absolute per dataset (anchored to the
// preset's feature bytes), mirroring the paper's fixed 16 GB / 4 GB:
// sweeping the input dimension then changes how many nodes fit in the
// cache, exactly as in Figure 1a, and NFP's large intermediates can
// overflow memory as in Figure 10. The memory anchor is sized so the
// per-batch working set stands in the same relation to device memory
// as at paper scale (batch size shrinks less than the graph does).
func (e *env) platformFor(base *hardware.Platform, d *dataset.Dataset) *hardware.Platform {
	p := *base
	featBytes := d.FeatureBytes()
	p.GPUMemBytes = featBytes * 3 / 2
	p.DefaultCacheBytes = int64(float64(featBytes) * cacheFraction)
	return &p
}

// taskConfig assembles one accounting-mode task.
type taskConfig struct {
	abbr      string
	featDim   int // 0 = preset default
	hidden    int
	fanouts   []int
	model     string // "sage" or "gat"
	heads     int
	platform  *hardware.Platform // nil = single machine with opts.Devices
	cacheFrac float64            // 0 = cacheFraction
	int8Frac  float64            // warm-tier share of the cache budget
	randPart  bool               // Fig. 11's random-partitioning baseline
}

func (e *env) task(tc taskConfig) core.Task {
	ds := *e.Dataset(tc.abbr)
	base := tc.platform
	if base == nil {
		base = hardware.WithDevices(hardware.SingleMachine8GPU(), 1, e.opts.Devices)
	}
	// The cache budget is anchored to the preset's own feature bytes,
	// so it is sized before the input-dimension override below.
	p := e.platformFor(base, &ds)
	if tc.cacheFrac != 0 {
		if tc.cacheFrac < 0 { // sentinel: cache disabled
			p.DefaultCacheBytes = 0
		} else {
			p.DefaultCacheBytes = int64(tc.cacheFrac * float64(ds.FeatureBytes()))
		}
	}
	if tc.featDim != 0 {
		ds.FeatDim = tc.featDim
	}
	fanouts := tc.fanouts
	if fanouts == nil {
		fanouts = []int{10, 10, 10}
	}
	spec := job.Spec{Model: tc.model, Hidden: tc.hidden, Heads: tc.heads, Layers: len(fanouts), Batch: e.opts.BatchSize}
	if spec.Heads == 0 {
		spec.Heads = 4
	}
	if spec.Hidden == 0 && spec.Model != "gat" {
		spec.Hidden = 32
	}
	task, err := spec.Task(&ds, 7)
	if err != nil {
		panic(err)
	}
	task.Sampling.Fanouts = fanouts
	task.Platform = p
	task.CacheBytes = p.DefaultCacheBytes
	task.Int8CacheFrac = tc.int8Frac
	task.Partition = e.Partition(tc.abbr, p.NumDevices(), tc.randPart)
	return task
}

// CaseResult holds one configuration's per-strategy measurements.
type CaseResult struct {
	Stats  map[strategy.Kind]engine.EpochStats
	Choice strategy.Kind
	APT    *core.APT
}

// Best returns the fastest strategy and its epoch time.
func (c *CaseResult) Best() (strategy.Kind, float64) {
	best, bestT := strategy.GDP, c.Stats[strategy.GDP].EpochTime()
	for _, k := range strategy.Core {
		if t := c.Stats[k].EpochTime(); t < bestT {
			best, bestT = k, t
		}
	}
	return best, bestT
}

// RunCase plans with APT and measures every strategy for epochs epochs
// (averaged).
func (e *env) RunCase(task core.Task) (*CaseResult, error) {
	apt, err := core.New(task)
	if err != nil {
		return nil, err
	}
	choice, err := apt.Plan()
	if err != nil {
		return nil, err
	}
	res := &CaseResult{Stats: map[strategy.Kind]engine.EpochStats{}, Choice: choice, APT: apt}
	for _, k := range strategy.Core {
		eng, err := apt.BuildEngine(k)
		if err != nil {
			return nil, err
		}
		var runs []engine.EpochStats
		for i := 0; i < e.opts.Epochs; i++ {
			runs = append(runs, eng.RunEpoch())
		}
		res.Stats[k] = meanStats(runs)
	}
	return res, nil
}

// meanStats averages epoch stats over runs (volumes and times).
func meanStats(runs []engine.EpochStats) engine.EpochStats {
	if len(runs) == 1 {
		return runs[0]
	}
	out := runs[0]
	inv := 1.0 / float64(len(runs))
	out.SampleSec, out.BuildSec, out.LoadSec, out.TrainSec, out.ShuffleSec = 0, 0, 0, 0, 0
	for _, r := range runs {
		out.SampleSec += r.SampleSec * inv
		out.BuildSec += r.BuildSec * inv
		out.LoadSec += r.LoadSec * inv
		out.TrainSec += r.TrainSec * inv
		out.ShuffleSec += r.ShuffleSec * inv
		out.OOM = out.OOM || r.OOM
	}
	return out
}

// barsForCase renders a case as the paper's stacked bars: sampling
// (incl. subgraph shuffle), feature loading, training (incl. hidden
// shuffle) — with APT's pick starred.
func barsForCase(title string, c *CaseResult) string {
	rows := make([]trace.Row, 0, 4)
	for _, k := range strategy.Core {
		st := c.Stats[k]
		note := ""
		if st.OOM {
			note = "[OOM]"
		}
		rows = append(rows, trace.StageRow(k.String(), st.SamplingBar(), st.LoadSec, st.TrainBar(), k == c.Choice, note))
	}
	return trace.RenderBars(title, rows)
}

func header(id, desc string) string {
	return fmt.Sprintf("=== %s: %s ===\n", id, desc)
}
