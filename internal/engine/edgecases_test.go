package engine

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/strategy"
)

// TestOddFeatureDimNFP checks NFP's dimension sharding when the input
// dimension does not divide the device count (shards differ by one).
func TestOddFeatureDimNFP(t *testing.T) {
	f := newFixture(t, 3, 200)
	f.dim = 8 // 8 dims over 3 devices -> shards 2/3/3
	newModel := func() *nn.Model { return nn.NewGraphSAGE(8, 6, f.classes, 2) }
	plan := sample.SplitEven(f.seeds, 3, graph.NewRNG(2))
	gdp, err := New(f.config(strategy.GDP, newModel, plan, []int{4, 4}))
	if err != nil {
		t.Fatal(err)
	}
	nfp, err := New(f.config(strategy.NFP, newModel, plan, []int{4, 4}))
	if err != nil {
		t.Fatal(err)
	}
	gdp.RunEpoch()
	nfp.RunEpoch()
	if d := paramsDiff(gdp, nfp); d > 1e-3 {
		t.Errorf("NFP with uneven shards diverges from GDP by %g", d)
	}
}

// TestSingleDeviceDegenerate runs every strategy on one device, where
// all of them must collapse to plain local training.
func TestSingleDeviceDegenerate(t *testing.T) {
	f := newFixture(t, 1, 150)
	newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 8, f.classes, 2) }
	plan := sample.SplitEven(f.seeds, 1, graph.NewRNG(3))
	var ref *Engine
	for _, k := range strategy.Core {
		e, err := New(f.config(k, newModel, plan, []int{4, 4}))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		st := e.RunEpoch()
		if st.Totals.HiddenShuffleBytes() != 0 || st.Totals.GraphShuffleBytes() != 0 {
			t.Errorf("%v on one device produced cross-device traffic", k)
		}
		if ref == nil {
			ref = e
		} else if d := paramsDiff(ref, e); d > 1e-4 {
			t.Errorf("%v single-device model differs by %g", k, d)
		}
	}
}

// TestMoreDevicesThanSeeds exercises workers with empty batches, which
// must still participate in every collective.
func TestMoreDevicesThanSeeds(t *testing.T) {
	f := newFixture(t, 4, 200)
	f.seeds = f.seeds[:6] // 6 seeds across 4 devices, batch 16
	newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 8, f.classes, 2) }
	for _, k := range strategy.Core {
		e, err := New(f.config(k, newModel, nil, []int{4, 4}))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		st := e.RunEpoch()
		if st.Totals.SeedsProcessed != 6 {
			t.Errorf("%v processed %d seeds, want 6", k, st.Totals.SeedsProcessed)
		}
		replicasInSync(t, e)
	}
}

// TestGATDistributedDNP runs GAT under DNP on a multi-machine platform
// (attention + cross-machine shipping together).
func TestGATDistributedDNP(t *testing.T) {
	f := newFixture(t, 4, 240)
	f.platform = newFixture(t, 4, 240).platform
	newModel := func() *nn.Model { return nn.NewGAT(f.dim, 3, 2, f.classes, 2) }
	plan := sample.SplitEven(f.seeds, 4, graph.NewRNG(5))
	gdp, err := New(f.config(strategy.GDP, newModel, plan, []int{3, 3}))
	if err != nil {
		t.Fatal(err)
	}
	dnp, err := New(f.config(strategy.DNP, newModel, plan, []int{3, 3}))
	if err != nil {
		t.Fatal(err)
	}
	gdp.RunEpoch()
	st := dnp.RunEpoch()
	if st.Totals.HiddenShuffleBytes() == 0 {
		t.Error("distributed GAT DNP shipped nothing")
	}
	if d := paramsDiff(gdp, dnp); d > 2e-3 {
		t.Errorf("GAT DNP diverges from GDP by %g", d)
	}
}

// TestMultiEpochStability runs several epochs under each strategy and
// checks replicas never desynchronize and loss stays finite.
func TestMultiEpochStability(t *testing.T) {
	f := newFixture(t, 4, 300)
	newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 12, f.classes, 2) }
	for _, k := range strategy.Core {
		cfg := f.config(k, newModel, nil, []int{5, 5})
		cfg.NewOptimizer = func() nn.Optimizer { return nn.NewAdam(0.01) }
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var last float64
		for ep := 0; ep < 4; ep++ {
			st := e.RunEpoch()
			last = st.MeanLoss
			if last != last || last < 0 { // NaN or negative
				t.Fatalf("%v epoch %d loss %v", k, ep, last)
			}
		}
		replicasInSync(t, e)
	}
}

// TestIsolatedSeedsMatchGDP trains under DNP and SNP at world 2 on a
// graph whose seeds owned by device 0 have no edges at all, against
// GDP on the same batches. Under DNP every request to device 0 then
// carries destinations that sampled no edges, so device 0 serves blocks
// with no sources (Src nil) at layer 0 of the one-layer model; SNP
// ships nothing for them. Either way the layer's projection must read
// no rows.
func TestIsolatedSeedsMatchGDP(t *testing.T) {
	f := newFixture(t, 2, 200)
	isolated := func(v graph.NodeID) bool { return v%4 == 0 }
	b := graph.NewBuilder(f.g.NumNodes())
	for v := 0; v < f.g.NumNodes(); v++ {
		for _, u := range f.g.Neighbors(graph.NodeID(v)) {
			if !isolated(graph.NodeID(v)) && !isolated(u) {
				b.AddEdge(graph.NodeID(v), u)
			}
		}
	}
	f.g = b.Build(true)
	// Seeds are the even nodes: the isolated ones (v%4 == 0) belong to
	// device 0, the rest to device 1.
	for v := range f.assign {
		f.assign[v] = int32(v / 2 % 2)
	}
	plan := sample.SplitEven(f.seeds, 2, graph.NewRNG(4))
	for layers := 1; layers <= 2; layers++ {
		newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 8, f.classes, layers) }
		fanouts := []int{4, 4}[:layers]
		gdp, err := New(f.config(strategy.GDP, newModel, plan, fanouts))
		if err != nil {
			t.Fatal(err)
		}
		gdp.RunEpoch()
		for _, k := range []strategy.Kind{strategy.DNP, strategy.SNP} {
			e, err := New(f.config(k, newModel, plan, fanouts))
			if err != nil {
				t.Fatal(err)
			}
			st := e.RunEpoch()
			if st.MeanLoss != st.MeanLoss {
				t.Fatalf("%v, %d layers: loss NaN", k, layers)
			}
			replicasInSync(t, e)
			if d := paramsDiff(gdp, e); d > 1e-3 {
				t.Errorf("%v, %d layers: diverges from GDP by %g", k, layers, d)
			}
		}
	}
}
