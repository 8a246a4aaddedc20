package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/strategy"
)

// APT is the adaptive parallel training system. Typical use:
//
//	apt, _ := core.New(task)
//	result, _ := apt.Train(epochs)
//
// or step-by-step: Prepare, Plan, BuildEngine, then drive the engine.
type APT struct {
	task    Task
	profile *comm.Profile
	part    *partition.Partitioning
	dryRun  *DryRunStats

	// Estimates are the planner's per-strategy predictions, best first.
	Estimates []Estimate
	// Choice is the selected strategy.
	Choice strategy.Kind
	// PlanWallSeconds is the wall-clock cost of Prepare+Plan (the
	// paper's dry-run overhead measurement).
	PlanWallSeconds float64

	prepared bool
	planned  bool

	// int8Frac is the live warm-tier split used by buildStore. It
	// starts at Task.Int8CacheFrac and is resized by the re-planner.
	int8Frac float64

	// CheckpointDir, when non-empty, makes Train write a rolling
	// snapshot (checkpoint.DefaultName inside the directory) at every
	// CheckpointEvery-th epoch boundary; 0 means every epoch. The
	// directory must exist.
	CheckpointDir   string
	CheckpointEvery int
	// CheckpointRetain, when positive, switches the directory to
	// epoch-stamped snapshots (checkpoint.SnapshotName) and prunes all
	// but the newest CheckpointRetain after each write; zero keeps the
	// single rolling snapshot.
	CheckpointRetain int

	// Transport is the fabric every engine this APT builds trains over;
	// nil puts every device in this process on the channel fabric. Set it
	// to one rank's wire transport (e.g. a transport.TCP bootstrapped
	// against the job's coordinator) to make this process that rank of a
	// multi-process job: every rank builds its APT from the identical
	// Task, and the engines drive only the ranks the transport hosts. It
	// is the deployment's fabric, not the job, so it is no Task field.
	Transport comm.Transport
	// OnEpoch, when set, is called at every epoch boundary of a training
	// run, after that boundary's checkpoint, on the training goroutine:
	// epoch is the total of completed epochs (a resumed run continues
	// the snapshot's numbering), m the first hosted replica.
	OnEpoch func(epoch int, st engine.EpochStats, m *nn.Model)

	// Checkpoint/resume state: the most recently built engine and its
	// strategy (what Checkpoint snapshots), the completed-epoch base
	// carried across engine rebuilds and resumes, and the snapshot a
	// Resume'd APT still has to apply to its first engine.
	lastEngine *engine.Engine
	lastKind   strategy.Kind
	epochBase  int
	resume     *checkpoint.Snapshot

	// Adaptive checkpoint/resume state: the live re-planner (set while
	// TrainAdaptive runs, so snapshots capture its learned state) and
	// the restored state a Resume'd APT hands to its first re-planner.
	replanner    *Replanner
	resumeReplan *ReplanState

	// Observability: reg always exists (epoch metrics fold into it);
	// spans is created only when an option asked for span collection.
	obsO  obs.Options
	reg   *obs.Registry
	spans *obs.Collector
}

// New validates the task and creates the system. Options attach
// observers: obs.WithTracePath exports a Chrome trace of the training
// run's spans when Train finishes, obs.WithObserver receives the span
// tracks and the metrics registry.
func New(task Task, opts ...obs.Option) (*APT, error) {
	if err := task.normalize(); err != nil {
		return nil, err
	}
	a := &APT{task: task, obsO: obs.BuildOptions(opts...), reg: obs.NewRegistry(), int8Frac: task.Int8CacheFrac}
	if a.obsO.Enabled() {
		a.spans = obs.NewCollector()
	}
	return a, nil
}

// Metrics returns the system's metrics registry; Train folds each
// epoch's volumes and stage times into it (apt_engine_* series).
func (a *APT) Metrics() *obs.Registry { return a.reg }

// Spans returns the span collector, or nil when no observability
// option requested span collection.
func (a *APT) Spans() *obs.Collector { return a.spans }

// Task returns the normalized task.
func (a *APT) Task() *Task { return &a.task }

// Partition returns the graph partitioning (after Prepare).
func (a *APT) Partition() *partition.Partitioning { return a.part }

// Profile returns the measured operator speeds (after Prepare).
func (a *APT) Profile() *comm.Profile { return a.profile }

// DryRunStats returns the planner statistics (after Plan).
func (a *APT) DryRunStats() *DryRunStats { return a.dryRun }

// ErrPartitionMismatch is the error Prepare returns, wrapped with the
// numbers, for a Task.Partition that does not fit the task: an Assign
// whose length is not the graph's node count, or more parts than the
// platform has devices. Fewer parts than devices is accepted.
var ErrPartitionMismatch = errors.New("core: partition does not fit the task")

// Prepare runs the paper's Prepare step: communication-operator
// bandwidth trials and graph partitioning.
//
//apt:allow simclock PlanWallSeconds reports real planner overhead (Table 4); the simulated clock only covers training
func (a *APT) Prepare() error {
	start := time.Now()
	if a.task.ProfileOverride != nil {
		a.profile = a.task.ProfileOverride
	} else {
		a.profile = comm.MeasureProfile(a.task.Platform)
	}
	if a.task.Partition != nil {
		a.part = a.task.Partition
	} else {
		a.part = partition.Multilevel(a.task.Graph, a.task.Platform.NumDevices(),
			partition.MultilevelConfig{Seed: a.task.Seed, EdgeBalanced: true})
	}
	if n := a.task.Graph.NumNodes(); len(a.part.Assign) != n {
		return fmt.Errorf("%w: Assign has %d entries, the graph has %d nodes", ErrPartitionMismatch, len(a.part.Assign), n)
	}
	if d := a.task.Platform.NumDevices(); a.part.NumParts > d {
		return fmt.Errorf("%w: %d parts, the platform has %d devices", ErrPartitionMismatch, a.part.NumParts, d)
	}
	if err := a.part.Validate(false); err != nil {
		return err
	}
	a.prepared = true
	a.PlanWallSeconds += time.Since(start).Seconds()
	return nil
}

// Plan runs the dry-run and cost models and selects the strategy.
// Planning is idempotent: once a plan exists — computed here or
// adopted from a snapshot by Resume — Plan returns it without
// re-running the dry-run.
//
//apt:allow simclock PlanWallSeconds reports real planner overhead (Table 4); the simulated clock only covers training
func (a *APT) Plan() (strategy.Kind, error) {
	if a.planned {
		return a.Choice, nil
	}
	if !a.prepared {
		if err := a.Prepare(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	if _, err := a.DryRun(); err != nil {
		return 0, err
	}
	cm := &CostModel{Profile: a.profile, Devices: a.task.Platform.NumDevices()}
	a.Estimates = cm.Select(a.dryRun.PerStrategy)
	a.Choice = a.Estimates[0].Kind
	a.planned = true
	a.PlanWallSeconds += time.Since(start).Seconds()
	return a.Choice, nil
}

// buildStore assembles the unified feature store for one strategy:
// host placement, per-strategy cache policy, and NFP's dimension-shard
// accounting (paper §3.2 and §4.2). Without the task's features
// (withFeats false: the dry run) an engine over it only charges.
func (a *APT) buildStore(k strategy.Kind, freq []int64, withFeats bool) *cache.Store {
	t := &a.task
	var feats = t.Feats
	if !withFeats {
		feats = nil
	}
	s := cache.NewStore(t.Platform, t.Graph.NumNodes(), t.FeatDim, feats)
	if k.NeedsPartition() {
		s.HostByPartition(a.part.Assign)
	} else {
		s.HostByRange()
	}
	if k == strategy.NFP {
		devices := t.Platform.NumDevices()
		s.LoadDim = (t.FeatDim + devices - 1) / devices
	}
	policy := cachePolicyFor(k)
	if t.CachePolicyOverride != nil {
		policy = *t.CachePolicyOverride
	}
	s.Admit(cache.SelectConfig{
		Policy: policy,
		Freq:   freq,
		Assign: a.part.Assign,
		Graph:  t.Graph,
	}, t.CacheBytes, a.int8Frac)
	if t.Platform.Machines > 1 && t.CPUCacheBytes > 0 {
		a.configureCPUCaches(s, freq)
	}
	return s
}

// configureCPUCaches replicates each machine's hottest remotely-hosted
// features into its CPU memory, within the per-machine budget.
func (a *APT) configureCPUCaches(s *cache.Store, freq []int64) {
	t := &a.task
	capNodes := int(t.CPUCacheBytes / int64(4*t.FeatDim))
	if capNodes <= 0 {
		return
	}
	for m := 0; m < t.Platform.Machines; m++ {
		cands := make([]graph.NodeID, 0, len(freq))
		for v := range freq {
			if int(s.HostMachine[v]) != m {
				cands = append(cands, graph.NodeID(v))
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			fi, fj := freq[cands[i]], freq[cands[j]]
			if fi != fj {
				return fi > fj
			}
			return cands[i] < cands[j]
		})
		if len(cands) > capNodes {
			cands = cands[:capNodes]
		}
		s.ConfigureCPUCache(m, cands)
	}
}

// engineConfig assembles an engine configuration (the Adapt step). The
// store's features decide the engine's mode: with them it trains.
func (a *APT) engineConfig(k strategy.Kind, store *cache.Store) engine.Config {
	t := &a.task
	cfg := engine.Config{
		Platform:     t.Platform,
		Graph:        t.Graph,
		Store:        store,
		NewModel:     t.NewModel,
		NewOptimizer: t.NewOptimizer,
		Labels:       t.Labels,
		Seeds:        t.Seeds,
		Sampling:     t.Sampling,
		BatchSize:    t.BatchSize,
		Assign:       a.part.Assign,
		Kind:         k,
		Seed:         t.Seed,
		Pipeline:     t.Pipeline,
	}
	return cfg
}

// BuildEngine performs the Adapt step for the given strategy: it
// configures the data layout (feature store, caches) and the unified
// execution engine over Transport. Real mode is used when the task has
// features.
func (a *APT) BuildEngine(k strategy.Kind) (*engine.Engine, error) {
	return a.buildEngine(k, a.Transport)
}

// BuildEngineDistributed is BuildEngine over an explicit transport tr,
// which must host localRank: the form of setting Transport for callers
// that drive the engine themselves. Every rank must call it with an
// identical Task — planning inputs included — so the replicas and the
// plan agree across processes; pair it with Task.ProfileOverride to
// plan against measured wire speeds instead of the simulated link
// model.
func (a *APT) BuildEngineDistributed(k strategy.Kind, tr comm.Transport, localRank int) (*engine.Engine, error) {
	if !slices.Contains(tr.Ranks(), localRank) {
		return nil, fmt.Errorf("core: local rank %d is not driven by the transport (ranks %v)", localRank, tr.Ranks())
	}
	return a.buildEngine(k, tr)
}

// buildEngine is the one engine builder.
func (a *APT) buildEngine(k strategy.Kind, tr comm.Transport) (*engine.Engine, error) {
	if !a.planned && a.dryRun == nil {
		// The cache configuration needs access frequencies even when
		// the user pins a strategy without planning.
		if !a.prepared {
			if err := a.Prepare(); err != nil {
				return nil, err
			}
		}
		a.dryRun = &DryRunStats{Freq: a.collectFrequencies()}
	}
	cfg := a.engineConfig(k, a.buildStore(k, a.dryRun.Freq, true))
	cfg.Spans = a.spans
	cfg.Transport = tr
	e, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	a.lastEngine, a.lastKind = e, k
	return e, nil
}

// Result summarizes a Train run.
type Result struct {
	Choice          strategy.Kind
	Estimates       []Estimate
	PlanWallSeconds float64
	// Epochs holds per-epoch statistics of the actual run.
	Epochs []engine.EpochStats
	// Replans lists the online re-planner's switches (TrainAdaptive
	// runs only; empty when the initial plan held).
	Replans []ReplanEvent
	// Model is the first hosted rank's trained replica (real mode).
	Model *nn.Model
}

// SimulatedEpochSeconds averages the simulated epoch time.
func (r *Result) SimulatedEpochSeconds() float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	var s float64
	for _, e := range r.Epochs {
		s += e.EpochTime()
	}
	return s / float64(len(r.Epochs))
}

// Train runs the full APT pipeline: Prepare, Plan, Adapt, and epochs
// of training under the selected strategy.
func (a *APT) Train(epochs int) (*Result, error) {
	return a.TrainContext(context.Background(), epochs)
}

// TrainContext is Train under a context: cancellation stops the run
// cleanly at the next synchronized step boundary and returns the
// epochs that completed alongside ctx.Err().
func (a *APT) TrainContext(ctx context.Context, epochs int) (*Result, error) {
	if epochs <= 0 {
		return nil, fmt.Errorf("core: epochs = %d", epochs)
	}
	if _, err := a.Plan(); err != nil {
		return nil, err
	}
	return a.TrainWithContext(ctx, a.Choice, epochs)
}

// TrainWith trains under a pinned strategy (used by the benchmarks to
// evaluate every strategy, and by users who want to override APT).
func (a *APT) TrainWith(k strategy.Kind, epochs int) (*Result, error) {
	return a.TrainWithContext(context.Background(), k, epochs)
}

// TrainWithContext is TrainWith under a context. Whatever ends the
// run — completion or cancellation — the observability options flush:
// the Chrome trace file is written and any observer sees the span
// tracks and metrics collected so far.
//
// epochs counts total completed epochs for the experiment: on a fresh
// APT that is simply the number of epochs to run, on a Resume'd one
// the snapshot's completed epochs count toward it. With CheckpointDir
// set, a rolling snapshot is written at the configured epoch cadence.
func (a *APT) TrainWithContext(ctx context.Context, k strategy.Kind, epochs int) (*Result, error) {
	return a.train(ctx, k, epochs, nil)
}

// train is the one epoch loop behind Train, TrainWith and
// TrainAdaptive: run an epoch, record it, let the re-planner (if any)
// see it and possibly swap the engine, checkpoint, report to OnEpoch. A
// nil re-planner is static training under k.
func (a *APT) train(ctx context.Context, k strategy.Kind, epochs int, rp *Replanner) (*Result, error) {
	e, err := a.BuildEngine(k)
	if err != nil {
		return nil, err
	}
	if err := a.consumeResume(e); err != nil {
		return nil, err
	}
	res := &Result{
		Choice:          k,
		Estimates:       a.Estimates,
		PlanWallSeconds: a.PlanWallSeconds,
	}
	var runErr error
	for a.epochBase+e.EpochsRun() < epochs {
		st, err := e.RunEpochContext(ctx)
		engine.RecordEpochMetrics(a.reg, st)
		if err != nil {
			runErr = err
			break
		}
		res.Epochs = append(res.Epochs, st)
		if done := a.epochBase + e.EpochsRun(); rp != nil && done < epochs {
			// Observe BEFORE checkpointing: the boundary-k snapshot must
			// carry the planner state that has already seen epoch k, or a
			// resumed run would calibrate one epoch behind the
			// uninterrupted one and their plan decisions could diverge.
			if e, err = a.replan(rp, e, done, st); err != nil {
				runErr = err
				break
			}
			res.Choice = rp.Current().Kind
		}
		if err := a.maybeCheckpoint(e, res.Choice); err != nil {
			runErr = err
			break
		}
		if a.OnEpoch != nil {
			a.OnEpoch(a.epochBase+e.EpochsRun(), st, e.Model(e.Ranks()[0]))
		}
	}
	if rp != nil {
		res.Replans = rp.Events
	}
	res.Model = e.Model(e.Ranks()[0])
	if err := a.obsO.Flush(a.spans, a.reg); err != nil && runErr == nil {
		runErr = err
	}
	return res, runErr
}
