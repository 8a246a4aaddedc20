package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/strategy"
	"repro/internal/transport"
)

// world is fixed at 2 so rank goroutines never outnumber the cores of
// the 2-core box the bounds were measured on.
const world = 2

const (
	batchSize  = 64
	hidden     = 32
	gatHeads   = 4
	cacheShare = 0.08
)

// workload is one row of the benchmark's workload table. The reason
// each exists is recorded in BENCHMARK.json and bench/README.md.
type workload struct {
	name   string
	preset string  // dataset preset (PS / FS / IM)
	scale  float64 // preset scale
	gat    bool    // GAT 2 x 4 heads x 32 instead of GraphSAGE 2 x 32
	// int8Frac is the warm-tier share of the cache budget.
	int8Frac float64
	// planned leaves the strategy to the planner; otherwise pinned runs.
	planned bool
	pinned  strategy.Kind
	tcp     bool // one core.APT per rank over a loopback transport.TCP mesh
	// adaptive runs the public lifecycle New -> Prepare -> Plan ->
	// TrainAdaptive with a rolling checkpoint every epoch.
	adaptive bool
	serve    bool // the measured loop is the serving phases
	// epochRate sizes the fixed work from --seconds: timed epochs per
	// measured second on the 2-core reference box.
	epochRate float64
	// midRate is the open-loop request rate of the mid serving phase (lo
	// is half of it, hi twice it) against a server over this workload's
	// graph and model. For the serving workload it is the highest rate
	// whose median latency repeated between runs on the 2-core box: at
	// 2000 rps queueing adds a tenth to the batch-wait-bound lo median and
	// ten seeds spread 9%; at 3000 three seeds read 3.2 / 3.3 / 4.2 ms;
	// at 4000 the in-process generator itself runs 10-15 ms late. The
	// training workloads have a rate because their traced runs report the
	// serve layer's metrics too, as every traced run must, from a server
	// over the model they trained; theirs scale with the model's cost.
	midRate float64
}

var workloads = []workload{
	{name: "ps-gdp-sage-chan", preset: "PS", scale: 0.2, pinned: strategy.GDP, epochRate: 3.1, midRate: 2000},
	{name: "fs-snp-sage-tcp", preset: "FS", scale: 0.1, pinned: strategy.SNP, tcp: true, epochRate: 3.7, midRate: 1000},
	{name: "im-apt-gat-chan", preset: "IM", scale: 0.1, gat: true, int8Frac: 0.25, planned: true, adaptive: true, epochRate: 1.0, midRate: 500},
	{name: "serve-ps-zipf-open", preset: "PS", scale: 0.2, planned: true, serve: true, epochRate: 3.1, midRate: 2000},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// config sizes one run.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	outDir  string // trace files and checkpoint scratch
	// quick is the smoke test's sizing, so that all four workloads run
	// untraced and traced inside `go test`: graphs of a few thousand
	// nodes, two timed epochs, one set-up, a 16 Ki allreduce vector, a
	// fifth of the probes' repetitions, a loose parts-sum tolerance (tiny
	// spans on a machine busy with other tests are mostly scheduler
	// noise) and no accuracy floor.
	quick bool
}

// scale is the dataset scale the workload is built at.
func (c *config) scale(w *workload) float64 {
	if c.quick {
		return 0.01
	}
	return w.scale
}

// setUps is how many times an untraced run sets its workload up;
// setup_s is their median.
func (c *config) setUps() int {
	if c.quick {
		return 1
	}
	return 3
}

// partsPerSetUp is how many consecutive parts one set-up's share of a measured
// loop is cut into: blocks of timed epochs, rounds of the serving
// phases. Each timing is the best part's of the whole run.
const partsPerSetUp = 2

// reps scales a probe's repetition count.
func (c *config) reps(n int) int {
	if c.quick {
		return max(n/5, 1)
	}
	return n
}

// minAccuracy is what the serving workload's model, trained for four
// epochs in set-up, must reach over the nodes it answers for. Four
// epochs on the smoke test's few hundred seeds train nothing.
func (c *config) minAccuracy() float64 {
	if c.quick {
		return 0
	}
	return 0.6
}

// partsTol is the parts-sum tolerance: children within 5% of the whole.
func (c *config) partsTol() float64 {
	if c.quick {
		return 0.5
	}
	return 0.05
}

// timedEpochs is the workload's fixed work for this run.
func (c *config) timedEpochs(w *workload) int {
	if c.quick {
		return 2
	}
	n := int(c.seconds*w.epochRate + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

// rank is one rank's private state: in a TCP job every rank builds its
// own dataset and core.APT, as separate processes would.
type rank struct {
	ds   *dataset.Dataset
	task core.Task
	apt  *core.APT
	eng  *engine.Engine
	tr   *transport.TCP
}

// job is a set-up workload, ready for its measured loop.
type job struct {
	w       *workload
	cfg     *config
	ranks   []*rank // one for channel jobs, world for TCP jobs
	ckptDir string
	srv     *serve.Server
	// trained is set once the TCP engines have run: the comparison with
	// the channel backend is only valid from freshly initialised ones.
	trained bool
}

func (j *job) newModel(featDim, classes int) func() *nn.Model {
	if j.w.gat {
		return func() *nn.Model { return nn.NewGAT(featDim, hidden, gatHeads, classes, 2) }
	}
	return func() *nn.Model { return nn.NewGraphSAGE(featDim, hidden, classes, 2) }
}

// prepareRank is the part of set-up every workload shares: dataset
// build, graph partitioning, core.New, Prepare and Plan. Pinned
// workloads plan too, so the cost model's prediction and regret are
// available for the three-clocks comparison.
func (j *job) prepareRank(tr *tracer, parent int) (*rank, error) {
	spec, err := dataset.ByAbbr(j.w.preset, j.cfg.scale(j.w))
	if err != nil {
		return nil, err
	}

	sp := tr.begin(parent, "dataset", "build")
	ds := dataset.Build(spec, true)
	tr.end(sp)

	// The dataset is a fixed input, like a published graph: the preset's
	// own seed builds it. Graphs drawn from different seeds differ by 7%
	// in epoch time, which would drown a 7% regression bound. The run's
	// seed drives everything that happens on the graph.

	// The partition is computed here, with the parameters core would
	// use, and handed over through Task.Partition (the paper's offline
	// partitioning step), so its cost is a span of its own.
	sp = tr.begin(parent, "partition", "multilevel")
	part := partition.Multilevel(ds.Graph, world, partition.MultilevelConfig{Seed: j.cfg.seed, EdgeBalanced: true})
	tr.end(sp)

	task := core.Task{
		Graph:         ds.Graph,
		Feats:         ds.Feats,
		Labels:        ds.Labels,
		FeatDim:       spec.FeatDim,
		Seeds:         ds.TrainSeeds,
		NewModel:      j.newModel(spec.FeatDim, spec.Classes),
		NewOptimizer:  func() nn.Optimizer { return nn.NewAdam(0.01) },
		Sampling:      sample.Config{Fanouts: []int{10, 10}},
		BatchSize:     batchSize,
		Platform:      hardware.WithDevices(hardware.SingleMachine8GPU(), 1, world),
		CacheBytes:    ds.CacheBytesFraction(cacheShare),
		Int8CacheFrac: j.w.int8Frac,
		Partition:     part,
		Seed:          j.cfg.seed,
	}
	sp = tr.begin(parent, "core", "new")
	apt, err := core.New(task)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(parent, "core", "prepare")
	err = apt.Prepare()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(parent, "core", "plan")
	_, err = apt.Plan()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &rank{ds: ds, task: task, apt: apt}, nil
}

// kind is the strategy the measured loop runs under.
func (j *job) kind(r *rank) strategy.Kind {
	if j.w.planned {
		return r.apt.Choice
	}
	return j.w.pinned
}

// setUp builds the workload once and returns it with the wall time the
// set-up took. The spans it records are the children of one "setup"
// span, which the traced run's parts-sum check compares to the whole.
func setUp(w *workload, cfg *config, tr *tracer) (j *job, sec float64, root int, err error) {
	j = &job{w: w, cfg: cfg}
	start := now()
	root = tr.begin(0, "bench", "setup")
	if w.tcp {
		err = j.setUpTCP(tr, root)
	} else {
		err = j.setUpLocal(tr, root)
	}
	tr.end(root)
	return j, since(start), root, err
}

func (j *job) setUpLocal(tr *tracer, root int) error {
	r, err := j.prepareRank(tr, root)
	if err != nil {
		return err
	}
	j.ranks = []*rank{r}
	switch {
	case j.w.adaptive:
		// TrainAdaptive builds its own engine; set-up ends at the plan.
		sp := tr.begin(root, "checkpoint", "mkdir")
		j.ckptDir, err = os.MkdirTemp(j.cfg.outDir, "ckpt-")
		tr.end(sp)
		if err != nil {
			return err
		}
		r.apt.CheckpointDir = j.ckptDir
	case j.w.serve:
		sp := tr.begin(root, "core", "train")
		res, err := r.apt.Train(4)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin(root, "serve", "new")
		j.srv, err = newServer(r, res.Model)
		tr.end(sp)
		if err != nil {
			return err
		}
	default:
		sp := tr.begin(root, "engine", "build")
		r.eng, err = r.apt.BuildEngine(j.kind(r))
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// newServer starts the inference server of the serving workload (and
// of the traced run's serving probe) over a trained model.
func newServer(r *rank, m *nn.Model) (*serve.Server, error) {
	return serve.New(serve.Config{
		Graph:      r.task.Graph,
		Feats:      r.task.Feats,
		Model:      m,
		Sampling:   r.task.Sampling,
		Platform:   r.task.Platform,
		Workers:    world,
		MaxBatch:   64,
		MaxDelay:   2 * time.Millisecond,
		CacheBytes: r.task.CacheBytes,
		Seed:       r.task.Seed,
		NewModel:   r.task.NewModel,
	})
}

// setUpTCP builds every rank concurrently, each with its own dataset,
// core.APT and engine, joined by a loopback TCP mesh. Rank 0's steps
// are the recorded spans; the time it then waits for the slower peer
// is a span too, so the children still sum to the whole.
func (j *job) setUpTCP(tr *tracer, root int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	j.ranks = make([]*rank, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 1; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			j.ranks[r], errs[r] = j.buildTCPRank(r, ln, nil, 0)
		}(r)
	}
	j.ranks[0], errs[0] = j.buildTCPRank(0, ln, tr, root)
	sp := tr.begin(root, "bench", "wait_peer")
	wg.Wait()
	tr.end(sp)
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

func (j *job) buildTCPRank(r int, ln net.Listener, tr *tracer, parent int) (*rank, error) {
	rk, err := j.prepareRank(tr, parent)
	if err != nil {
		return nil, err
	}
	opts := transport.TCPOptions{Rank: r, World: world, Coord: ln.Addr().String()}
	if r == 0 {
		opts.CoordListener = ln
	}
	sp := tr.begin(parent, "transport", "rendezvous")
	rk.tr, err = transport.NewTCP(opts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(parent, "engine", "build")
	rk.eng, err = rk.apt.BuildEngineDistributed(j.kind(rk), rk.tr, r)
	tr.end(sp)
	return rk, err
}

// close releases what set-up started: sockets, the server's workers
// and the checkpoint scratch directory.
func (j *job) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, r := range j.ranks {
		if r != nil && r.tr != nil {
			keep(r.tr.Close())
		}
	}
	if j.srv != nil {
		keep(j.srv.Close())
	}
	if j.ckptDir != "" {
		keep(os.RemoveAll(filepath.Clean(j.ckptDir)))
	}
	return first
}
