package core

import (
	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/sample"
	"repro/internal/strategy"
)

// DryRunStats are the data-dependent statistics the planner collects
// (paper §3.2): one epoch of graph sampling plus, per strategy, the
// communication and load volumes of dispatching those samples — all
// without feature loading, hidden-embedding movement, or training
// computation.
type DryRunStats struct {
	// Freq[v] counts how often node v appeared as a layer-1 source —
	// the hotness signal for cache configuration and Table 3.
	Freq []int64
	// PerStrategy holds each strategy's volume-accounting epoch.
	PerStrategy map[strategy.Kind]engine.EpochStats
}

// sampleDryRunEpoch samples one epoch (even seed split) once, counts
// layer-1 source accesses, and keeps the batches so every strategy's
// dispatch-only epoch can reuse them — the paper's second dry-run
// cheapness argument ("the same graph samples are reused during
// dry-run for different strategies"). One epoch suffices: the top-1%
// hot sets of consecutive epochs overlap ~95%.
func (a *APT) sampleDryRunEpoch() (*sample.SeedPlan, [][]*sample.MiniBatch, []int64) {
	t := &a.task
	n := t.Platform.NumDevices()
	freq := make([]int64, t.Graph.NumNodes())
	plan := sample.SplitEven(t.Seeds, n, graph.NewRNG(t.Seed^0xd17a))
	smp := t.Sampling
	if t.NewModel().NeedsDstInSrc() {
		smp.IncludeDstInSrc = true
	}
	steps := plan.NumBatches(t.BatchSize)
	batches := make([][]*sample.MiniBatch, n)
	for w := 0; w < n; w++ {
		s := sample.NewSampler(t.Graph, smp, graph.NewRNG(t.Seed^uint64(w*31+7)))
		batches[w] = make([]*sample.MiniBatch, steps)
		for step := 0; step < steps; step++ {
			mb := s.Sample(plan.Batch(w, step, t.BatchSize))
			batches[w][step] = mb
			sample.CountLayer1SrcAccesses(freq, mb)
		}
	}
	return plan, batches, freq
}

// collectFrequencies returns only the dry-run access frequencies (used
// when an engine is built for a pinned strategy without planning).
func (a *APT) collectFrequencies() []int64 {
	_, _, freq := a.sampleDryRunEpoch()
	return freq
}

// dryRunStrategy dispatches the shared dry-run samples under the given
// strategy with its proper cache configuration and returns the epoch's
// volumes and stage times.
func (a *APT) dryRunStrategy(k strategy.Kind, plan *sample.SeedPlan,
	batches [][]*sample.MiniBatch, freq []int64) (engine.EpochStats, error) {
	store := a.buildStore(k, freq, false)
	cfg := a.engineConfig(k, store)
	cfg.ForceSeedPlan = plan
	cfg.PreSampled = batches
	e, err := engine.New(cfg)
	if err != nil {
		return engine.EpochStats{}, err
	}
	return e.RunEpoch(), nil
}

// DryRun collects all planner statistics: one sampled epoch, shared by
// the frequency counters and all four strategies' dispatch epochs.
func (a *APT) DryRun() (*DryRunStats, error) {
	plan, batches, freq := a.sampleDryRunEpoch()
	st := &DryRunStats{Freq: freq, PerStrategy: map[strategy.Kind]engine.EpochStats{}}
	for _, k := range strategy.Core {
		es, err := a.dryRunStrategy(k, plan, batches, freq)
		if err != nil {
			return nil, err
		}
		st.PerStrategy[k] = es
	}
	a.dryRun = st
	return st, nil
}

// cachePolicyFor maps a strategy to its paper §3.2 cache rule.
func cachePolicyFor(k strategy.Kind) cache.Policy {
	switch k {
	case strategy.SNP, strategy.Hybrid:
		return cache.PolicyHotPartition
	case strategy.DNP:
		return cache.PolicyHotPartitionPlus1Hop
	default:
		return cache.PolicyHotGlobal
	}
}
