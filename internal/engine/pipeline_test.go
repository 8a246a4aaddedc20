package engine

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/strategy"
)

// TestPipelinedMatchesSequential verifies the pipelined engine trains
// bit-identically to the synchronous path under every strategy: the
// prefetch goroutine draws the same sampler RNG stream in the same
// order, and nothing else about the numerics moves.
func TestPipelinedMatchesSequential(t *testing.T) {
	f := newFixture(t, 4, 400)
	newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 12, f.classes, 2) }
	plan := sample.SplitEven(f.seeds, 4, graph.NewRNG(5))
	for _, k := range strategy.Core {
		seq, err := New(f.config(k, newModel, plan, []int{5, 5}))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		cfg := f.config(k, newModel, plan, []int{5, 5})
		cfg.Pipeline = true
		pip, err := New(cfg)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		for epoch := 0; epoch < 2; epoch++ {
			stSeq := seq.RunEpoch()
			stPip := pip.RunEpoch()
			if d := paramsDiff(seq, pip); d != 0 {
				t.Errorf("%v epoch %d: pipelined params diverged by %g", k, epoch, d)
			}
			if stSeq.MeasuredPipelinedSec != 0 {
				t.Errorf("%v: sequential run reported a measured pipelined time", k)
			}
			if stPip.MeasuredPipelinedSec <= 0 {
				t.Errorf("%v: pipelined run measured nothing", k)
			}
			if stPip.MeasuredPipelinedSec > stSeq.EpochTime()*(1+1e-9) {
				t.Errorf("%v: measured pipelined %.6fs exceeds sequential %.6fs",
					k, stPip.MeasuredPipelinedSec, stSeq.EpochTime())
			}
			if stPip.MeanLoss != stSeq.MeanLoss {
				t.Errorf("%v epoch %d: loss %v != %v", k, epoch, stPip.MeanLoss, stSeq.MeanLoss)
			}
		}
		replicasInSync(t, pip)
	}
}

// TestPipelinedMatchesSequentialGAT covers the attention layers (whose
// forward/backward lean hardest on the buffer pool) on the pipelined
// path.
func TestPipelinedMatchesSequentialGAT(t *testing.T) {
	f := newFixture(t, 3, 300)
	newModel := func() *nn.Model { return nn.NewGAT(f.dim, 6, 2, f.classes, 2) }
	plan := sample.SplitEven(f.seeds, 3, graph.NewRNG(9))
	seq, err := New(f.config(strategy.GDP, newModel, plan, []int{4, 4}))
	if err != nil {
		t.Fatal(err)
	}
	cfg := f.config(strategy.GDP, newModel, plan, []int{4, 4})
	cfg.Pipeline = true
	pipEng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq.RunEpoch()
	pipEng.RunEpoch()
	if d := paramsDiff(seq, pipEng); d != 0 {
		t.Errorf("GAT pipelined params diverged by %g", d)
	}
}

// TestPipelinedAccountingBounded checks the measured overlapped epoch
// on the simulated clocks: strictly positive, never better than
// perfect overlap could explain (>= the train-stage bar), and never
// worse than the synchronous schedule.
func TestPipelinedAccountingBounded(t *testing.T) {
	f := newFixture(t, 4, 400)
	newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 12, f.classes, 2) }
	for _, k := range strategy.Core {
		cfg := f.config(k, newModel, nil, []int{5, 5})
		cfg.Store = cache.NewStore(f.platform, f.g.NumNodes(), f.dim, nil)
		cfg.Store.HostByRange()
		cfg.Labels = nil
		cfg.Pipeline = true
		col := obs.NewCollector()
		cfg.Spans = col
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		st := e.RunEpoch()
		if st.MeasuredPipelinedSec <= 0 {
			t.Fatalf("%v: no measured pipelined time", k)
		}
		if st.MeasuredPipelinedSec > st.EpochTime()*(1+1e-9) {
			t.Errorf("%v: measured %.6fs > synchronous %.6fs",
				k, st.MeasuredPipelinedSec, st.EpochTime())
		}
		if st.MeasuredPipelinedSec < st.TrainSec {
			t.Errorf("%v: measured %.6fs beats the train bar %.6fs — overlap cannot hide compute",
				k, st.MeasuredPipelinedSec, st.TrainSec)
		}
		// Per-step sampling comes from the prefetcher and lands on the
		// sampler track: one span per step, with nonzero total.
		for _, tr := range col.Tracks() {
			if tr.Proc != "sampler" {
				continue
			}
			var sampleSum float64
			for _, s := range tr.Spans() {
				sampleSum += s.Dur
			}
			if tr.Len() != st.NumBatches || sampleSum <= 0 {
				t.Errorf("%v: sampler track %s holds %d sample spans totalling %v, want %d with positive total",
					k, tr.Name, tr.Len(), sampleSum, st.NumBatches)
			}
		}
	}
}

// TestPipelinedPreSampled drives the pipelined engine through the
// planner's pre-sampled dry-run path.
func TestPipelinedPreSampled(t *testing.T) {
	f := newFixture(t, 2, 200)
	newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 8, f.classes, 2) }
	plan := sample.SplitEven(f.seeds, 2, graph.NewRNG(3))

	// Sample one epoch up front with the same per-device RNG streams
	// the engine would use.
	cfg := f.config(strategy.GDP, newModel, plan, []int{4, 4})
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nb := plan.NumBatches(cfg.BatchSize)
	pre := make([][]*sample.MiniBatch, 2)
	for d := 0; d < 2; d++ {
		for s := 0; s < nb; s++ {
			pre[d] = append(pre[d], ref.workers[d].sampler.Sample(plan.Batch(d, s, cfg.BatchSize)))
		}
	}

	cfg2 := f.config(strategy.GDP, newModel, plan, []int{4, 4})
	cfg2.PreSampled = pre
	cfg2.Pipeline = true
	e, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	st := e.RunEpoch()
	if st.NumBatches != nb || st.MeasuredPipelinedSec <= 0 {
		t.Fatalf("pre-sampled pipelined epoch: %+v", st)
	}
	replicasInSync(t, e)
}
