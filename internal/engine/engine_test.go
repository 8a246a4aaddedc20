package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/sample"
	"repro/internal/strategy"
	"repro/internal/tensor"
)

// testFixture bundles a small planted-community task every engine test
// shares: features carry a noisy community signal so models can learn.
type testFixture struct {
	g        *graph.Graph
	feats    *tensor.Matrix
	labels   []int32
	seeds    []graph.NodeID
	assign   []int32
	platform *hardware.Platform
	dim      int
	classes  int
}

func newFixture(t testing.TB, devices, nodes int) *testFixture {
	t.Helper()
	const communities = 4
	per := nodes / communities
	rng := graph.NewRNG(42)
	b := graph.NewBuilder(nodes)
	for c := 0; c < communities; c++ {
		base := c * per
		for i := 0; i < per*5; i++ {
			u, v := base+rng.Intn(per), base+rng.Intn(per)
			if u != v {
				b.AddUndirected(int32(u), int32(v))
			}
		}
	}
	for i := 0; i < nodes/10; i++ {
		u, v := rng.Intn(nodes), rng.Intn(nodes)
		if u != v {
			b.AddUndirected(int32(u), int32(v))
		}
	}
	g := b.Build(true)

	dim := 8
	feats := tensor.New(nodes, dim)
	labels := make([]int32, nodes)
	for v := 0; v < nodes; v++ {
		c := v / per
		if c >= communities {
			c = communities - 1
		}
		labels[v] = int32(c)
		for j := 0; j < dim; j++ {
			feats.Set(v, j, 0.3*rng.NormFloat32())
		}
		feats.Set(v, c, feats.At(v, c)+1)
	}
	seeds := make([]graph.NodeID, 0, nodes/2)
	for v := 0; v < nodes; v += 2 {
		seeds = append(seeds, graph.NodeID(v))
	}
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, devices)
	assign := partition.Multilevel(g, devices, partition.MultilevelConfig{Seed: 7}).Assign
	return &testFixture{
		g: g, feats: feats, labels: labels, seeds: seeds,
		assign: assign, platform: p, dim: dim, classes: communities,
	}
}

// newStore builds a real-mode store with a modest hot cache.
func (f *testFixture) newStore(cacheNodes int, policy cache.Policy) *cache.Store {
	s := cache.NewStore(f.platform, f.g.NumNodes(), f.dim, f.feats)
	s.HostByRange()
	freq := make([]int64, f.g.NumNodes())
	for v := range freq {
		freq[v] = int64(f.g.Degree(graph.NodeID(v))) // degree proxy is fine for tests
	}
	lists := cache.Select(cache.SelectConfig{
		Policy: policy, Freq: freq, Assign: f.assign, Graph: f.g,
		CapacityNodes: cacheNodes, Devices: f.platform.NumDevices(),
	})
	for d, l := range lists {
		s.ConfigureCache(d, l)
	}
	return s
}

func (f *testFixture) config(kind strategy.Kind, newModel func() *nn.Model, plan *sample.SeedPlan, fanouts []int) Config {
	return Config{
		Platform:      f.platform,
		Graph:         f.g,
		Store:         f.newStore(40, policyFor(kind)),
		NewModel:      newModel,
		NewOptimizer:  func() nn.Optimizer { return nn.NewSGD(0.3) },
		Labels:        f.labels,
		Seeds:         f.seeds,
		Sampling:      sample.Config{Fanouts: fanouts},
		BatchSize:     16,
		Assign:        f.assign,
		Kind:          kind,
		Seed:          99,
		ForceSeedPlan: plan,
	}
}

func policyFor(k strategy.Kind) cache.Policy {
	switch k {
	case strategy.SNP:
		return cache.PolicyHotPartition
	case strategy.DNP:
		return cache.PolicyHotPartitionPlus1Hop
	default:
		return cache.PolicyHotGlobal
	}
}

// paramsDiff returns the max parameter difference between two engines'
// device-0 replicas.
func paramsDiff(a, b *Engine) float64 {
	pa, pb := a.Model(0).Params(), b.Model(0).Params()
	var mx float64
	for i := range pa {
		if d := pa[i].W.MaxAbsDiff(pb[i].W); d > mx {
			mx = d
		}
	}
	return mx
}

// replicasInSync verifies all devices hold identical models.
func replicasInSync(t *testing.T, e *Engine) {
	t.Helper()
	p0 := e.Model(0).Params()
	for d := 1; d < len(e.workers); d++ {
		pd := e.Model(d).Params()
		for i := range p0 {
			if diff := p0[i].W.MaxAbsDiff(pd[i].W); diff > 1e-6 {
				t.Fatalf("device %d param %d diverged by %g", d, i, diff)
			}
		}
	}
}

// TestSemanticEquivalence is the paper's Fig. 6 claim in its strongest
// form: trained on identical mini-batches, all four strategies produce
// the same model up to float32 reassociation.
func TestSemanticEquivalenceSAGE(t *testing.T) {
	f := newFixture(t, 4, 400)
	newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 12, f.classes, 2) }
	plan := sample.SplitEven(f.seeds, 4, graph.NewRNG(5))

	engines := map[strategy.Kind]*Engine{}
	for _, k := range strategy.Core {
		e, err := New(f.config(k, newModel, plan, []int{5, 5}))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		for epoch := 0; epoch < 2; epoch++ {
			e.RunEpoch()
		}
		replicasInSync(t, e)
		engines[k] = e
	}
	for _, k := range []strategy.Kind{strategy.NFP, strategy.SNP, strategy.DNP} {
		if d := paramsDiff(engines[strategy.GDP], engines[k]); d > 1e-3 {
			t.Errorf("GDP vs %v: max param diff %g (strategies not equivalent)", k, d)
		}
	}
}

func TestSemanticEquivalenceGAT(t *testing.T) {
	f := newFixture(t, 3, 300)
	newModel := func() *nn.Model { return nn.NewGAT(f.dim, 4, 2, f.classes, 2) }
	plan := sample.SplitEven(f.seeds, 3, graph.NewRNG(6))

	engines := map[strategy.Kind]*Engine{}
	for _, k := range strategy.Core {
		e, err := New(f.config(k, newModel, plan, []int{4, 4}))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		e.RunEpoch()
		replicasInSync(t, e)
		engines[k] = e
	}
	for _, k := range []strategy.Kind{strategy.NFP, strategy.SNP, strategy.DNP} {
		if d := paramsDiff(engines[strategy.GDP], engines[k]); d > 2e-3 {
			t.Errorf("GDP vs %v (GAT): max param diff %g", k, d)
		}
	}
}

// TestSemanticEquivalenceGCN: the test-only GCN layer (gcn_test.go)
// under the same check at world 4, on two machines of two GPUs — it
// reaches the strategies through nn.Layer alone.
func TestSemanticEquivalenceGCN(t *testing.T) {
	f := newFixture(t, 4, 400)
	f.platform = hardware.WithDevices(hardware.FourMachines4GPU(), 2, 2)
	newModel := func() *nn.Model { return newGCN(f.dim, 12, f.classes, 2) }
	plan := sample.SplitEven(f.seeds, 4, graph.NewRNG(5))

	engines := map[strategy.Kind]*Engine{}
	for _, k := range strategy.Core {
		e, err := New(f.config(k, newModel, plan, []int{5, 5}))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		for epoch := 0; epoch < 2; epoch++ {
			e.RunEpoch()
		}
		replicasInSync(t, e)
		engines[k] = e
	}
	for _, k := range strategy.Core[1:] {
		if d := paramsDiff(engines[strategy.GDP], engines[k]); d > 1e-3 {
			t.Errorf("GDP vs %v (GCN): max param diff %g (strategies not equivalent)", k, d)
		}
	}
}

// TestGDPMatchesReference removes sampling randomness (full-neighbor
// fanout) so the engine and the sequential reference trainer must
// produce the same model.
func TestGDPMatchesReference(t *testing.T) {
	f := newFixture(t, 2, 200)
	newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 8, f.classes, 2) }
	fullFanout := []int{1000, 1000}
	plan := sample.SplitEven(f.seeds, 2, graph.NewRNG(3))

	e, err := New(f.config(strategy.GDP, newModel, plan, fullFanout))
	if err != nil {
		t.Fatal(err)
	}
	e.RunEpoch()

	ref := NewReference(f.g, f.feats, f.labels, newModel, nn.NewSGD(0.3),
		sample.Config{Fanouts: fullFanout}, 99)
	// Feed the reference the engine's global batches in the same order.
	nb := plan.NumBatches(16)
	for step := 0; step < nb; step++ {
		var global []graph.NodeID
		for d := 0; d < 2; d++ {
			global = append(global, plan.Batch(d, step, 16)...)
		}
		ref.TrainStep(global)
	}
	pe, pr := e.Model(0).Params(), ref.Model.Params()
	for i := range pe {
		if d := pe[i].W.MaxAbsDiff(pr[i].W); d > 1e-3 {
			t.Errorf("param %d: engine vs reference diff %g", i, d)
		}
	}
}

func TestTrainingLearnsCommunities(t *testing.T) {
	f := newFixture(t, 4, 400)
	newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 16, f.classes, 2) }
	cfg := f.config(strategy.DNP, newModel, nil, []int{5, 5})
	cfg.NewOptimizer = func() nn.Optimizer { return nn.NewAdam(0.01) }
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	test := make([]graph.NodeID, 0)
	for v := 1; v < f.g.NumNodes(); v += 2 {
		test = append(test, graph.NodeID(v))
	}
	before := Evaluate(f.g, e.Model(0), f.feats, f.labels, test, cfg.Sampling, 64, 1)
	var lastLoss float64
	for epoch := 0; epoch < 8; epoch++ {
		st := e.RunEpoch()
		lastLoss = st.MeanLoss
	}
	after := Evaluate(f.g, e.Model(0), f.feats, f.labels, test, cfg.Sampling, 64, 1)
	if after < before+0.2 || after < 0.7 {
		t.Errorf("accuracy %v -> %v; model failed to learn", before, after)
	}
	if lastLoss <= 0 || lastLoss > 1.0 {
		t.Errorf("final loss %v unreasonable", lastLoss)
	}
}

func TestAccountingModeVolumes(t *testing.T) {
	f := newFixture(t, 4, 400)
	newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 12, f.classes, 2) }
	stats := map[strategy.Kind]EpochStats{}
	for _, k := range strategy.Core {
		cfg := f.config(k, newModel, nil, []int{5, 5})
		cfg.Store = cache.NewStore(f.platform, f.g.NumNodes(), f.dim, nil) // no features
		cfg.Store.HostByRange()
		cfg.Labels = nil
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		stats[k] = e.RunEpoch()
	}
	if stats[strategy.GDP].Totals.HiddenShuffleBytes() != 0 {
		t.Error("GDP must not shuffle hidden embeddings")
	}
	if stats[strategy.GDP].Totals.GraphShuffleBytes() != 0 {
		t.Error("GDP must not shuffle subgraphs")
	}
	for _, k := range []strategy.Kind{strategy.NFP, strategy.SNP, strategy.DNP} {
		if stats[k].Totals.HiddenShuffleBytes() == 0 {
			t.Errorf("%v produced no hidden shuffle volume", k)
		}
		if stats[k].Totals.GraphShuffleBytes() == 0 {
			t.Errorf("%v produced no graph shuffle volume", k)
		}
	}
	// NFP broadcasts every block and pays per destination per device —
	// the largest hidden volume (paper: 2d'CN_d vs 2d'N_v).
	if stats[strategy.NFP].Totals.HiddenShuffleBytes() <= stats[strategy.DNP].Totals.HiddenShuffleBytes() {
		t.Error("NFP hidden shuffle should exceed DNP's")
	}
	// DNP ships at most one embedding per destination; SNP may ship
	// one per (destination, owner) pair.
	if stats[strategy.DNP].Totals.HiddenShuffleBytes() > stats[strategy.SNP].Totals.HiddenShuffleBytes() {
		t.Error("DNP hidden shuffle should not exceed SNP's")
	}
	for _, k := range strategy.Core {
		st := stats[k]
		if st.SampleSec <= 0 || st.TrainSec <= 0 {
			t.Errorf("%v: missing stage times %+v", k, st)
		}
		if st.EpochTime() != st.SampleSec+st.BuildSec+st.LoadSec+st.TrainSec+st.ShuffleSec {
			t.Errorf("%v: EpochTime does not decompose", k)
		}
		if st.Totals.Layer1Dst == 0 || st.Totals.SampledEdges == 0 {
			t.Errorf("%v: missing counters", k)
		}
	}
}

func TestAccountingAndRealChargeSameVolumes(t *testing.T) {
	f := newFixture(t, 3, 300)
	newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 8, f.classes, 2) }
	plan := sample.SplitEven(f.seeds, 3, graph.NewRNG(4))
	for _, k := range strategy.Core {
		cfgReal := f.config(k, newModel, plan, []int{4, 4})
		eReal, err := New(cfgReal)
		if err != nil {
			t.Fatal(err)
		}
		stReal := eReal.RunEpoch()

		cfgAcc := f.config(k, newModel, plan, []int{4, 4})
		// Same store shape, no feature payload.
		cfgAcc.Store = f.newStore(40, policyFor(k))
		cfgAcc.Store.Feats = nil
		eAcc, err := New(cfgAcc)
		if err != nil {
			t.Fatal(err)
		}
		stAcc := eAcc.RunEpoch()

		if stReal.Totals.HiddenShuffleBytes() != stAcc.Totals.HiddenShuffleBytes() {
			t.Errorf("%v: hidden bytes real %d != accounting %d", k,
				stReal.Totals.HiddenShuffleBytes(), stAcc.Totals.HiddenShuffleBytes())
		}
		if stReal.Totals.GraphShuffleBytes() != stAcc.Totals.GraphShuffleBytes() {
			t.Errorf("%v: graph bytes real %d != accounting %d", k,
				stReal.Totals.GraphShuffleBytes(), stAcc.Totals.GraphShuffleBytes())
		}
		if stReal.Totals.Load.Bytes != stAcc.Totals.Load.Bytes {
			t.Errorf("%v: load bytes differ between modes", k)
		}
	}
}

// TestModeFollowsStore pins the one switch between the modes, the
// store's features: over a store without them (and with no labels)
// every strategy trains nothing — each replica keeps its initial
// parameters bit for bit and the epoch's loss is 0 — and a store with
// features but no labels is refused when the engine is built, not
// mid-epoch.
func TestModeFollowsStore(t *testing.T) {
	f := newFixture(t, 2, 200)
	newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 8, f.classes, 2) }
	for _, k := range strategy.Core {
		cfg := f.config(k, newModel, nil, []int{4, 4})
		cfg.Store = cache.NewStore(f.platform, f.g.NumNodes(), f.dim, nil)
		cfg.Store.HostByRange()
		cfg.Labels = nil
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if st := e.RunEpoch(); st.MeanLoss != 0 {
			t.Errorf("%v: featureless store reported loss %v", k, st.MeanLoss)
		}
		init := newModel()
		init.Init(graph.NewRNG(cfg.Seed))
		for _, d := range e.Ranks() {
			for i, p := range e.Model(d).Params() {
				for j, v := range p.W.Data {
					if w := init.Params()[i].W.Data[j]; math.Float32bits(v) != math.Float32bits(w) {
						t.Fatalf("%v: rank %d param %d[%d] moved %v -> %v over a featureless store", k, d, i, j, w, v)
					}
				}
			}
		}
	}
	cfg := f.config(strategy.GDP, newModel, nil, []int{4, 4})
	cfg.Labels = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("engine.New accepted a store with features but no labels")
	}
}

func TestNFPOOMAtLargeHidden(t *testing.T) {
	f := newFixture(t, 4, 400)
	tiny := *f.platform
	tiny.GPUMemBytes = 64 * 1024 // 64KB "GPU"
	tiny.DefaultCacheBytes = 0
	f.platform = &tiny
	newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 256, f.classes, 2) }
	cfg := f.config(strategy.NFP, newModel, nil, []int{8, 8})
	cfg.Store = cache.NewStore(f.platform, f.g.NumNodes(), f.dim, nil)
	cfg.Store.HostByRange()
	cfg.Labels = nil
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := e.RunEpoch()
	if !st.OOM {
		t.Error("NFP with huge hidden dim on tiny GPU did not flag OOM (paper Fig. 10 behavior)")
	}
}

func TestEngineValidation(t *testing.T) {
	f := newFixture(t, 2, 100)
	newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 8, f.classes, 2) }
	cfg := f.config(strategy.SNP, newModel, nil, []int{4})
	cfg.Assign = nil
	if _, err := New(cfg); err == nil {
		t.Error("SNP without partition accepted")
	}
	cfg2 := f.config(strategy.GDP, newModel, nil, []int{4})
	cfg2.BatchSize = 0
	if _, err := New(cfg2); err == nil {
		t.Error("zero batch accepted")
	}
	cfg3 := f.config(strategy.GDP, newModel, nil, []int{4})
	cfg3.Store = nil
	if _, err := New(cfg3); err == nil {
		t.Error("nil store accepted")
	}
}

func TestStrategyTable1Shape(t *testing.T) {
	rows := strategy.Table1()
	if len(rows) != 4 {
		t.Fatalf("Table1 has %d rows", len(rows))
	}
	for i, k := range strategy.Core {
		if rows[i].Kind != k {
			t.Errorf("row %d kind %v", i, rows[i].Kind)
		}
	}
	if !rows[3].RequiresPartition || rows[0].RequiresPartition {
		t.Error("partition requirements wrong")
	}
	if k, err := strategy.Parse("dnp"); err != nil || k != strategy.DNP {
		t.Error("Parse failed")
	}
	if _, err := strategy.Parse("bogus"); err == nil {
		t.Error("Parse accepted bogus name")
	}
	if fmt.Sprint(strategy.GDP, strategy.NFP, strategy.SNP, strategy.DNP) != "GDP NFP SNP DNP" {
		t.Error("String() names wrong")
	}
}
