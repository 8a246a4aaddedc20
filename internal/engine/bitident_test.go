package engine

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/strategy"
	"repro/internal/tensor"
)

// The fused, cache-blocked kernels guarantee bit-identical results to
// the kernels they replaced: per output element, float32 terms
// accumulate in the same strictly increasing k/edge order. These tests
// pin that guarantee end to end. On one device with a forced seed plan
// and full-neighbor fanout, every strategy degenerates to the same
// local computation as the sequential reference trainer, so the models
// must match EXACTLY — any reassociation introduced by tiling,
// packing, zero-skipping, or gather fusion would show up as a non-zero
// diff here.

func requireParamsExact(t *testing.T, tag string, got, want []*nn.Param) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d params vs %d", tag, len(got), len(want))
	}
	for i := range got {
		if d := got[i].W.MaxAbsDiff(want[i].W); d != 0 {
			t.Errorf("%s: param %d differs by %g (want exact bit-identity)", tag, i, d)
		}
	}
}

func requireLogitsExact(t *testing.T, tag string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: logits shape %dx%d vs %dx%d", tag, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Errorf("%s: logits[%d] = %v, want %v (exact equality)", tag, i, got.Data[i], want.Data[i])
			return
		}
	}
}

// trainBitIdentReference trains the sequential reference on exactly the
// batches the engine's forced plan will produce.
func trainBitIdentReference(f *testFixture, newModel func() *nn.Model,
	plan *sample.SeedPlan, fanouts []int, epochs, batch int) *Reference {
	ref := NewReference(f.g, f.feats, f.labels, newModel, nn.NewSGD(0.3),
		sample.Config{Fanouts: fanouts}, 99)
	nb := plan.NumBatches(batch)
	for ep := 0; ep < epochs; ep++ {
		for step := 0; step < nb; step++ {
			ref.TrainStep(plan.Batch(0, step, batch))
		}
	}
	return ref
}

func runBitIdentity(t *testing.T, f *testFixture, newModel func() *nn.Model) {
	const epochs = 2
	fullFanout := make([]int, len(newModel().Layers))
	for i := range fullFanout {
		fullFanout[i] = 1000
	}
	plan := sample.SplitEven(f.seeds, 1, graph.NewRNG(3))
	ref := trainBitIdentReference(f, newModel, plan, fullFanout, epochs, 16)

	// Guard against a vacuous pass: training must have moved the params
	// away from the shared initialization, or "exactly equal" proves
	// nothing about the training paths.
	init := newModel()
	init.Init(graph.NewRNG(99))
	var moved float64
	for i, p := range ref.Model.Params() {
		if d := p.W.MaxAbsDiff(init.Params()[i].W); d > moved {
			moved = d
		}
	}
	if moved == 0 {
		t.Fatal("reference training left params at their initial values")
	}

	// A held-out batch for the inference check (fixed sampler seed, full
	// fanout, so both models see the same blocks).
	probe := sample.NewSampler(f.g, func() sample.Config {
		c := sample.Config{Fanouts: fullFanout}
		if ref.Model.NeedsDstInSrc() {
			c.IncludeDstInSrc = true
		}
		return c
	}(), graph.NewRNG(12))
	mb := probe.Sample(f.seeds[:16])
	refSt := ref.Model.ForwardGathered(mb, tensor.FS(f.feats), mb.Layer1().Src)

	for _, k := range strategy.Core {
		for _, pipelined := range []bool{false, true} {
			mode := "sync"
			if pipelined {
				mode = "pipelined"
			}
			tag := fmt.Sprintf("%v/%s", k, mode)
			cfg := f.config(k, newModel, plan, fullFanout)
			cfg.Pipeline = pipelined
			e, err := New(cfg)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			for ep := 0; ep < epochs; ep++ {
				e.RunEpoch()
			}
			requireParamsExact(t, tag, e.Model(0).Params(), ref.Model.Params())

			// The trained engine model's inference logits must equal the
			// reference model's training-forward logits bit for bit:
			// PredictGathered runs the same fused kernels in the same
			// order, just without retaining backward state.
			logits := e.Model(0).PredictGathered(mb, tensor.FS(f.feats), mb.Layer1().Src)
			requireLogitsExact(t, tag, logits, refSt.Logits)
			tensor.Put(logits)
		}
	}
}

// TestBitIdenticalToReferenceSAGE: every strategy, synchronous and
// pipelined, train a GraphSAGE model bit-identically to the sequential
// reference on one device.
func TestBitIdenticalToReferenceSAGE(t *testing.T) {
	f := newFixture(t, 1, 160)
	runBitIdentity(t, f, func() *nn.Model {
		return nn.NewGraphSAGE(f.dim, 8, f.classes, 2)
	})
}

// TestBitIdenticalToReferenceGAT is the attention variant: the
// strategies ship per-head projections instead of partial aggregates,
// and the reassembled projections must still be bit-exact.
func TestBitIdenticalToReferenceGAT(t *testing.T) {
	f := newFixture(t, 1, 160)
	runBitIdentity(t, f, func() *nn.Model {
		return nn.NewGAT(f.dim, 4, 2, f.classes, 2)
	})
}

// TestBitIdenticalToReferenceGCN runs the same check on a layer the
// engine has never heard of (gcn_test.go): its only contact with the
// strategies is the nn.Layer interface.
func TestBitIdenticalToReferenceGCN(t *testing.T) {
	f := newFixture(t, 1, 160)
	runBitIdentity(t, f, func() *nn.Model { return newGCN(f.dim, 8, f.classes, 2) })
}

// TestBitIdenticalToReferenceThreeLayers runs the same check on three
// layers of each model, so that a hidden layer above the first — a
// layer that reads the one below's output and returns an input
// gradient — runs in the engine's walk.
func TestBitIdenticalToReferenceThreeLayers(t *testing.T) {
	f := newFixture(t, 1, 160)
	for name, newModel := range map[string]func() *nn.Model{
		"sage": func() *nn.Model { return nn.NewGraphSAGE(f.dim, 8, f.classes, 3) },
		"gat":  func() *nn.Model { return nn.NewGAT(f.dim, 4, 2, f.classes, 3) },
		"gcn":  func() *nn.Model { return newGCN(f.dim, 8, f.classes, 3) },
	} {
		t.Run(name, func(t *testing.T) { runBitIdentity(t, f, newModel) })
	}
}
