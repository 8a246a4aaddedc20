package engine

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/tensor"
)

func inferFixture(t *testing.T, cacheAll bool) (*Inferencer, *graph.Graph, *nn.Model, *tensor.Matrix) {
	t.Helper()
	g := graph.PreferentialAttachment(graph.GenerateConfig{NumNodes: 300, AvgDegree: 8, Seed: 2})
	dim := 12
	rng := graph.NewRNG(4)
	feats := tensor.New(g.NumNodes(), dim)
	for i := range feats.Data {
		feats.Data[i] = rng.NormFloat32()
	}
	m := nn.NewGraphSAGE(dim, 16, 4, 2)
	m.Init(graph.NewRNG(7))
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 2)
	store := cache.NewStore(p, g.NumNodes(), dim, feats)
	store.HostByRange()
	if cacheAll {
		all := make([]graph.NodeID, g.NumNodes())
		for i := range all {
			all[i] = graph.NodeID(i)
		}
		for d := 0; d < p.NumDevices(); d++ {
			store.ConfigureCache(d, all)
		}
	}
	inf, err := NewInferencer(InferConfig{
		Platform: p,
		Graph:    g,
		Store:    store,
		Model:    m,
		Sampling: sample.Config{Fanouts: []int{0, 0}, Method: sample.Full},
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inf, g, m, feats
}

// TestInferMatchesDirectPredict checks worker inference equals a
// direct sampler+Predict run (deterministic under Full sampling).
func TestInferMatchesDirectPredict(t *testing.T) {
	inf, g, m, feats := inferFixture(t, false)
	seeds := []graph.NodeID{3, 50, 299}
	logits, st := inf.Worker(0).Infer(seeds)
	defer tensor.Put(logits)
	if logits.Rows != len(seeds) {
		t.Fatalf("logits rows = %d, want %d", logits.Rows, len(seeds))
	}
	var total int64
	for _, n := range st.Nodes {
		total += n
	}
	if total == 0 {
		t.Fatal("no feature loads recorded")
	}

	smp := sample.NewSampler(g, sample.Config{Fanouts: []int{0, 0}, Method: sample.Full}, graph.NewRNG(1))
	mb := smp.Sample(seeds)
	x := tensor.Gather(feats, mb.Layer1().Src)
	want := m.Predict(mb, x)
	defer tensor.Put(want)
	requireBitsEqual(t, "worker inference vs direct predict", logits, want)
}

// requireBitsEqual fails unless got and want have the same shape and
// every element the same math.Float32bits, which tells −0 from +0.
func requireBitsEqual(t *testing.T, tag string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", tag, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if g, w := math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]); g != w {
			t.Fatalf("%s: element %d = %v (%#08x), want %v (%#08x)", tag, i, got.Data[i], g, want.Data[i], w)
		}
	}
}

// TestInferChargesSimTimeAndHitsCache checks device clocks advance and
// a fully-populated cache serves every read from GPU memory.
func TestInferChargesSimTimeAndHitsCache(t *testing.T) {
	inf, _, _, _ := inferFixture(t, true)
	logits, st := inf.Worker(1).Infer([]graph.NodeID{10, 20, 30})
	tensor.Put(logits)
	if st.Nodes[cache.LocGPU] == 0 {
		t.Fatal("expected GPU cache hits with a full cache")
	}
	var miss int64
	for loc, n := range st.Nodes {
		if cache.Location(loc) != cache.LocGPU {
			miss += n
		}
	}
	if miss != 0 {
		t.Fatalf("expected all hits, got %d misses", miss)
	}
	if inf.SimSeconds() <= 0 {
		t.Fatal("no simulated time charged")
	}
	if inf.NumWorkers() != 2 {
		t.Fatalf("NumWorkers = %d", inf.NumWorkers())
	}
}

// TestInferencerValidation exercises the constructor's error paths.
func TestInferencerValidation(t *testing.T) {
	g := graph.PreferentialAttachment(graph.GenerateConfig{NumNodes: 50, AvgDegree: 4, Seed: 2})
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 1)
	m := nn.NewGraphSAGE(8, 8, 3, 2)
	accStore := cache.NewStore(p, g.NumNodes(), 8, nil)
	if _, err := NewInferencer(InferConfig{Platform: p, Graph: g, Store: accStore, Model: m,
		Sampling: sample.Config{Fanouts: []int{2, 2}}}); err == nil {
		t.Fatal("accounting store accepted")
	}
	feats := tensor.New(g.NumNodes(), 8)
	store := cache.NewStore(p, g.NumNodes(), 8, feats)
	if _, err := NewInferencer(InferConfig{Platform: p, Graph: g, Store: store, Model: m,
		Sampling: sample.Config{Fanouts: []int{2}}}); err == nil {
		t.Fatal("fanout/layer mismatch accepted")
	}
}

// tableFixture is a graph whose batches reach every layer-0 edge case:
// nodes 0..239 form a preferential-attachment core, 240..279 only send
// edges into it (in-degree zero: an empty segment, and under Full
// sampling a seed with no sources), and 280..299 are isolated. Feature
// rows are unit normals with a few all-zero and all-(−0) rows.
func tableFixture() (*graph.Graph, *tensor.Matrix) {
	const n, core, dim = 300, 240, 12
	pa := graph.PreferentialAttachment(graph.GenerateConfig{NumNodes: core, AvgDegree: 6, Seed: 5})
	b := graph.NewBuilder(n)
	for v := 0; v < core; v++ {
		for _, u := range pa.Neighbors(graph.NodeID(v)) {
			b.AddEdge(u, graph.NodeID(v))
		}
	}
	rng := graph.NewRNG(6)
	for u := core; u < 280; u++ {
		for k := 0; k < 3; k++ {
			b.AddEdge(graph.NodeID(u), graph.NodeID(rng.Intn(core)))
		}
	}
	feats := tensor.New(n, dim)
	for i := range feats.Data {
		feats.Data[i] = rng.NormFloat32()
	}
	for v := 0; v < n; v += 37 {
		clear(feats.Row(v))
	}
	for v := 5; v < n; v += 41 {
		for j := range feats.Row(v) {
			feats.Row(v)[j] = float32(math.Copysign(0, -1))
		}
	}
	return b.Build(true), feats
}

// TestInferTableMatchesPredictGathered holds every answer of the
// projection-table path to Model.PredictGathered on the worker's own
// feature view and the same sampled batch, by math.Float32bits: SAGE
// with mean and with sum aggregation, packed-head GAT; fanout and Full
// sampling; a store with no warm tier and one whose int8 tier is on
// device 0 only (worker 0 then has its own table, worker 1 shares the
// fp32 one); at GOMAXPROCS 1, 2, 3 and 8.
func TestInferTableMatchesPredictGathered(t *testing.T) {
	g, feats := tableFixture()
	dim := feats.Cols
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 2)
	models := []struct {
		name  string
		build func() *nn.Model
	}{
		{"sage-mean", func() *nn.Model { return nn.NewGraphSAGE(dim, 16, 4, 2) }},
		{"sage-sum", func() *nn.Model { return nn.NewGraphSAGEWithAgg(dim, 16, 4, 2, nn.AggSum) }},
		{"gat", func() *nn.Model { return nn.NewGAT(dim, 4, 3, 4, 2) }},
	}
	samplings := []struct {
		name string
		cfg  sample.Config
	}{
		{"fanout", sample.Config{Fanouts: []int{4, 3}}},
		{"full", sample.Config{Fanouts: []int{0, 0}, Method: sample.Full}},
	}
	stores := []struct {
		name  string
		build func() *cache.Store
	}{
		{"fp32", func() *cache.Store {
			s := cache.NewStore(p, g.NumNodes(), dim, feats)
			s.HostByRange()
			return s
		}},
		{"int8-dev0", func() *cache.Store {
			s := cache.NewStore(p, g.NumNodes(), dim, feats)
			s.HostByRange()
			var hot, warm []graph.NodeID
			for v := 0; v < g.NumNodes(); v++ {
				switch v % 3 {
				case 0:
					hot = append(hot, graph.NodeID(v))
				case 1:
					warm = append(warm, graph.NodeID(v))
				}
			}
			s.ConfigureCacheTiered(0, hot, warm)
			return s
		}},
	}
	// Every batch mixes core seeds with in-degree-zero and isolated
	// ones, duplicates and an empty batch included.
	batches := [][]graph.NodeID{
		{0, 1, 2, 3, 240, 280},
		{299, 250, 17, 17, 100, 239},
		{},
		{285},
		{260},
	}
	for v := 0; v < g.NumNodes(); v += 4 {
		batches = append(batches, []graph.NodeID{graph.NodeID(v), graph.NodeID(v + 1), graph.NodeID(v + 2), graph.NodeID(v + 3)})
	}
	for _, procs := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, mc := range models {
				for _, sc := range samplings {
					for _, stc := range stores {
						m := mc.build()
						m.Init(graph.NewRNG(11))
						store := stc.build()
						inf, err := NewInferencer(InferConfig{Platform: p, Graph: g, Store: store, Model: m, Sampling: sc.cfg, Seed: 13})
						if err != nil {
							t.Fatal(err)
						}
						name := mc.name + "/" + sc.name + "/" + stc.name
						for wi := 0; wi < inf.NumWorkers(); wi++ {
							w := inf.Worker(wi)
							// The worker and the reference draw the same batches
							// from twin samplers.
							w.sampler = sample.NewSampler(g, inf.cfg.Sampling, graph.NewRNG(uint64(17+wi)))
							ref := sample.NewSampler(g, inf.cfg.Sampling, graph.NewRNG(uint64(17+wi)))
							view := store.FeatView(w.Device().ID)
							for bi, seeds := range batches {
								got, _ := w.Infer(seeds)
								mb := ref.Sample(seeds)
								want := m.PredictGathered(mb, view, mb.Layer1().Src)
								requireBitsEqual(t, fmt.Sprintf("%s worker %d batch %d vs PredictGathered", name, wi, bi), got, want)
								tensor.Put(got)
								tensor.Put(want)
							}
						}
					}
				}
			}
		})
	}
}

// TestInferWarmAllocs bounds a warm worker's per-batch allocations at
// GOMAXPROCS 1 by the counts measured on this fixture with the
// per-batch projection GEMM, before the projection table: 12 per Infer
// call for GraphSAGE, 30 for GAT (the table path makes 11 and 29).
func TestInferWarmAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // the inline kernel path; the fan-out's goroutines allocate
	g, feats := tableFixture()
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 1)
	store := cache.NewStore(p, g.NumNodes(), feats.Cols, feats)
	store.HostByRange()
	for _, tc := range []struct {
		m     *nn.Model
		bound float64
	}{
		{nn.NewGraphSAGE(feats.Cols, 16, 4, 2), 12},
		{nn.NewGAT(feats.Cols, 4, 3, 4, 2), 30},
	} {
		tc.m.Init(graph.NewRNG(11))
		inf, err := NewInferencer(InferConfig{Platform: p, Graph: g, Store: store, Model: tc.m,
			Sampling: sample.Config{Fanouts: []int{4, 3}}, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		w := inf.Worker(0)
		seeds := []graph.NodeID{0, 1, 2, 3, 240, 280, 17, 100}
		infer := func() {
			logits, _ := w.Infer(seeds)
			tensor.Put(logits)
		}
		for i := 0; i < 5; i++ {
			infer() // warm the pools and the worker's buffers
		}
		if got := testing.AllocsPerRun(50, infer); got > tc.bound {
			t.Errorf("%s: warm Infer allocates %v times per call, want at most %v", tc.m.Name, got, tc.bound)
		}
	}
}

// TestInferSpansTileClock checks that a serving batch's sample, load
// and train spans tile the worker's clock: each starts where the last
// ended, each lasts exactly its stage's clock advance over the batch,
// and the load span carries the batch's input-feature bytes.
func TestInferSpansTileClock(t *testing.T) {
	inf, g, _, feats := inferFixture(t, false)
	col := obs.NewCollector()
	inf.AttachSpans(col)
	w := inf.Worker(0)
	smp := sample.NewSampler(g, sample.Config{Fanouts: []int{0, 0}, Method: sample.Full}, graph.NewRNG(1))
	stages := []device.Stage{device.StageSample, device.StageLoad, device.StageTrain}
	at := 0.0
	for b, seeds := range [][]graph.NodeID{{3, 50, 299}, {7}, {10, 20, 30, 40}} {
		before := w.Device().Clock()
		logits, _ := w.Infer(seeds)
		tensor.Put(logits)
		adv := w.Device().Clock().Sub(before)
		spans := col.Tracks()[0].Spans()
		if len(spans) != len(stages)*(b+1) {
			t.Fatalf("batch %d: %d spans on the worker's track, want %d", b, len(spans), len(stages)*(b+1))
		}
		loadBytes := int64(smp.Sample(seeds).Layer1().NumSrc()) * int64(feats.Cols) * 4
		for i, s := range stages {
			sp := spans[len(stages)*b+i]
			var bytes int64
			if s == device.StageLoad {
				bytes = loadBytes
			}
			if sp.Stage != string(s) || sp.Step != b || sp.Start != at || sp.Dur != adv.At(s) || sp.Bytes != bytes {
				t.Errorf("batch %d: span %+v, want %s step %d at %v for %v with %d bytes", b, sp, s, b, at, adv.At(s), bytes)
			}
			at = sp.End()
		}
	}
	if n := col.Tracks()[1].Len(); n != 0 {
		t.Errorf("idle worker's track holds %d spans", n)
	}
}
