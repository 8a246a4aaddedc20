package engine

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/strategy"
)

// TestSemanticEquivalenceSumAggregator repeats the four-strategy
// equivalence check with sum aggregation (GIN-style): partial sums
// need no degree normalization, but every distributed path must agree.
func TestSemanticEquivalenceSumAggregator(t *testing.T) {
	f := newFixture(t, 4, 300)
	newModel := func() *nn.Model {
		return nn.NewGraphSAGEWithAgg(f.dim, 10, f.classes, 2, nn.AggSum)
	}
	plan := sample.SplitEven(f.seeds, 4, graph.NewRNG(5))
	engines := map[strategy.Kind]*Engine{}
	for _, k := range strategy.Core {
		cfg := f.config(k, newModel, plan, []int{5, 5})
		// Sum aggregation grows activations; keep the step small.
		cfg.NewOptimizer = func() nn.Optimizer { return nn.NewSGD(0.01, 0) }
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		e.RunEpoch()
		replicasInSync(t, e)
		engines[k] = e
	}
	for _, k := range []strategy.Kind{strategy.NFP, strategy.SNP, strategy.DNP} {
		if d := paramsDiff(engines[strategy.GDP], engines[k]); d > 1e-3 {
			t.Errorf("GDP vs %v (sum agg): max param diff %g", k, d)
		}
	}
}

// TestSemanticEquivalenceLayerWise checks that the strategies remain
// equivalent under the FastGCN-style layer-wise sampler — APT's
// "sampling is a black box" claim.
func TestSemanticEquivalenceLayerWise(t *testing.T) {
	f := newFixture(t, 3, 300)
	newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 10, f.classes, 2) }
	plan := sample.SplitEven(f.seeds, 3, graph.NewRNG(6))
	engines := map[strategy.Kind]*Engine{}
	for _, k := range strategy.Core {
		cfg := f.config(k, newModel, plan, []int{5, 5})
		cfg.Sampling.Method = sample.LayerWise
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		e.RunEpoch()
		replicasInSync(t, e)
		engines[k] = e
	}
	for _, k := range []strategy.Kind{strategy.NFP, strategy.SNP, strategy.DNP} {
		if d := paramsDiff(engines[strategy.GDP], engines[k]); d > 1e-3 {
			t.Errorf("GDP vs %v (layer-wise): max param diff %g", k, d)
		}
	}
}

// TestVolumeInvariantsProperty checks the structural communication
// invariants on random tasks: GDP never shuffles; DNP ships at most
// one hidden vector per remote destination while NFP pays per
// destination per device.
func TestVolumeInvariantsProperty(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		f := newFixture(t, 4, 200+40*trial)
		newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 8, f.classes, 2) }
		plan := sample.SplitEven(f.seeds, 4, graph.NewRNG(uint64(trial)))
		stats := map[strategy.Kind]EpochStats{}
		for _, k := range strategy.Core {
			cfg := f.config(k, newModel, plan, []int{4, 4})
			cfg.Store = f.newStore(40, policyFor(k))
			cfg.Store.Feats = nil
			cfg.Labels = nil
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			stats[k] = e.RunEpoch()
		}
		if stats[strategy.GDP].Totals.HiddenShuffleBytes() != 0 {
			t.Fatal("GDP shuffled hidden embeddings")
		}
		dPrime := int64(8 * 4)
		nd := stats[strategy.DNP]
		// DNP hidden volume = 2 x virtual nodes x d' bytes exactly.
		if got, want := nd.Totals.HiddenShuffleBytes(), 2*nd.Totals.VirtualNodes*dPrime; got != want {
			t.Errorf("trial %d: DNP hidden bytes %d != 2*Nvd*d' = %d", trial, got, want)
		}
		ns := stats[strategy.SNP]
		if got, want := ns.Totals.HiddenShuffleBytes(), 2*ns.Totals.VirtualNodes*dPrime; got != want {
			t.Errorf("trial %d: SNP hidden bytes %d != 2*Nvs*d' = %d", trial, got, want)
		}
		// NFP: every device ships a partial for every remote destination
		// forward and receives every gradient backward: 2*(C-1)*Nd*d'.
		nf := stats[strategy.NFP]
		if got, want := nf.Totals.HiddenShuffleBytes(), 2*3*nf.Totals.Layer1Dst*dPrime; got != want {
			t.Errorf("trial %d: NFP hidden bytes %d != 2(C-1)*Nd*d' = %d", trial, got, want)
		}
		// Paper Table 1 ordering: DNP <= SNP <= NFP.
		if nd.Totals.HiddenShuffleBytes() > ns.Totals.HiddenShuffleBytes() ||
			ns.Totals.HiddenShuffleBytes() > nf.Totals.HiddenShuffleBytes() {
			t.Errorf("trial %d: hidden volume ordering violated", trial)
		}
	}
}
