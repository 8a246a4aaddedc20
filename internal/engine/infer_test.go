package engine

import (
	"fmt"
	"math"
	"runtime"
	"sync"
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
// direct sampler+PredictGathered run (deterministic under Full
// sampling).
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
	want := m.PredictGathered(mb, tensor.FS(feats), mb.Layer1().Src)
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
	if len(inf.workers) != 2 {
		t.Fatalf("%d workers, want 2", len(inf.workers))
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
// feature view and the same keyed sample, by math.Float32bits: SAGE
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
						for wi := 0; wi < len(inf.workers); wi++ {
							w := inf.Worker(wi)
							ref := keyedSampler(g, inf.cfg.Sampling, 13)
							view := store.FeatView(w.dev.ID)
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
// call for GraphSAGE, 30 for GAT (the table path makes 11 and 29). An
// Answer batch whose every seed misses the answer table — the table is
// emptied before each call — runs draw k over the seeds that need more
// than k draws and must allocate what those draws do alone, to within
// a fraction of one allocation per call: picking the sets, averaging
// and filling allocate nothing.
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
		requireEveryDrawCount(t, inf, seeds)
		perDraw := make([]func(), maxDraws) // draw k over its seeds; draw 0 is Infer
		for k := range perDraw {
			var set []graph.NodeID
			for _, v := range seeds {
				if inf.draws(v) > k {
					set = append(set, v)
				}
			}
			perDraw[k] = func() {
				logits, _ := w.draw(k, set)
				tensor.Put(logits)
			}
		}
		fill := func() {
			for i := range w.answers.state {
				w.answers.state[i].Store(answerEmpty)
			}
			logits, _, hits := w.Answer(seeds)
			if hits != 0 {
				t.Fatalf("%s: %d answer-table hits in an emptied table", tc.m.Name, hits)
			}
			tensor.Put(logits)
		}
		for i := 0; i < 5; i++ {
			for _, run := range perDraw {
				run() // warm the pools and the worker's buffers
			}
			fill()
		}
		if got := testing.AllocsPerRun(50, perDraw[0]); got > tc.bound {
			t.Errorf("%s: warm Infer allocates %v times per call, want at most %v", tc.m.Name, got, tc.bound)
		}
		var draws float64
		for _, run := range perDraw {
			draws += mallocsPerRun(200, run)
		}
		if got := mallocsPerRun(200, fill); got >= draws+0.5 {
			t.Errorf("%s: warm Answer (all misses) allocates %.2f times per call, its draws alone %.2f", tc.m.Name, got, draws)
		}
	}
}

// mallocsPerRun is testing.AllocsPerRun without its truncation to a
// whole count: the mean heap allocations of runs calls of f.
func mallocsPerRun(runs int, f func()) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(runs)
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
		before := w.dev.Clock()
		logits, _ := w.Infer(seeds)
		tensor.Put(logits)
		adv := w.dev.Clock().Sub(before)
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

// keyedSampler returns a sampler keyed by key.
func keyedSampler(g *graph.Graph, cfg sample.Config, key uint64) *sample.Sampler {
	s := sample.NewSampler(g, cfg, graph.NewRNG(key))
	s.SetKey(key)
	return s
}

// recomputeAnswers is Answer's reference, computed anew: the mean of
// each seed's first n keyed draws' Model.PredictGathered on view,
// summed in draw order, where n is one under Full sampling and
// otherwise ⌈degree / product of the fanouts⌉ between one and four.
// cfg is the inferencer's sampling configuration (self-inclusion
// already forced for GAT).
func recomputeAnswers(g *graph.Graph, cfg sample.Config, seed uint64, m *nn.Model, view tensor.FeatSource, seeds []graph.NodeID) *tensor.Matrix {
	draw := func(k uint64) *tensor.Matrix {
		mb := keyedSampler(g, cfg, seed^k).Sample(seeds)
		return m.PredictGathered(mb, view, mb.Layer1().Src)
	}
	a := draw(0)
	if cfg.Method == sample.Full {
		return a
	}
	tree := 1
	for _, f := range cfg.Fanouts {
		tree *= f
	}
	more := []*tensor.Matrix{draw(1), draw(2), draw(3)}
	for i, v := range seeds {
		n := min(4, max(1, (g.Degree(v)+tree-1)/tree))
		ra := a.Row(i)
		for _, d := range more[:n-1] {
			for j, x := range d.Row(i) {
				ra[j] += x
			}
		}
		if n > 1 {
			for j := range ra {
				ra[j] /= float32(n)
			}
		}
	}
	for _, d := range more {
		tensor.Put(d)
	}
	return a
}

// requireEveryDrawCount fails t unless seeds hold a node answered with
// each number of draws, one to maxDraws.
func requireEveryDrawCount(t *testing.T, inf *Inferencer, seeds []graph.NodeID) {
	t.Helper()
	seen := make([]bool, maxDraws+1)
	for _, v := range seeds {
		seen[inf.draws(v)] = true
	}
	for n := 1; n <= maxDraws; n++ {
		if !seen[n] {
			t.Fatalf("no seed of %v is answered with %d draws (tree of %d nodes): the fixture no longer covers every answer", seeds, n, inf.treeNodes)
		}
	}
}

// TestAnswerTableHitEqualsRecompute holds every answer the answer table
// serves to recomputation — recomputeAnswers on the worker's own
// feature view — by math.Float32bits, for
// SAGE and GAT, with a store whose int8 tier is on device 0 only (so
// worker 0 keeps its own tables and worker 1 the fp32 ones): a batch
// of misses fills the table, the same batch again is all hits and
// charges nothing, a batch mixing hits and misses keeps its row order,
// and on a shared view one worker's fills are the other's hits.
func TestAnswerTableHitEqualsRecompute(t *testing.T) {
	g, feats := tableFixture()
	dim := feats.Cols
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 3)
	for _, mc := range []struct {
		name  string
		build func() *nn.Model
	}{
		{"sage", func() *nn.Model { return nn.NewGraphSAGE(dim, 16, 4, 2) }},
		{"gat", func() *nn.Model { return nn.NewGAT(dim, 4, 3, 4, 2) }},
	} {
		t.Run(mc.name, func(t *testing.T) {
			m := mc.build()
			m.Init(graph.NewRNG(11))
			store := cache.NewStore(p, g.NumNodes(), dim, feats)
			store.HostByRange()
			var warm []graph.NodeID
			for v := 1; v < g.NumNodes(); v += 3 {
				warm = append(warm, graph.NodeID(v))
			}
			store.ConfigureCacheTiered(0, nil, warm)
			inf, err := NewInferencer(InferConfig{Platform: p, Graph: g, Store: store, Model: m,
				Sampling: sample.Config{Fanouts: []int{4, 3}}, Seed: 13})
			if err != nil {
				t.Fatal(err)
			}
			if inf.Worker(0).answers == inf.Worker(1).answers || inf.Worker(1).answers != inf.Worker(2).answers {
				t.Fatal("answer tables not shared exactly by the workers of one feature view")
			}
			check := func(wi int, seeds []graph.NodeID, wantHits int) {
				t.Helper()
				w := inf.Worker(wi)
				before := w.dev.Clock()
				got, st, hits := w.Answer(seeds)
				defer tensor.Put(got)
				if hits != wantHits {
					t.Fatalf("worker %d, seeds %v: %d answer-table hits, want %d", wi, seeds, hits, wantHits)
				}
				if hits == len(seeds) && (w.dev.Clock() != before || st != (cache.LoadStats{})) {
					t.Fatalf("worker %d, seeds %v: an all-hit batch charged the device or loaded features", wi, seeds)
				}
				want := recomputeAnswers(g, inf.cfg.Sampling, 13, m, store.FeatView(w.dev.ID), seeds)
				requireBitsEqual(t, fmt.Sprintf("worker %d answers %v vs recomputation", wi, seeds), got, want)
			}
			first := []graph.NodeID{0, 1, 2, 3, 240, 280, 17, 100}
			requireEveryDrawCount(t, inf, first)
			check(1, first, 0)                                        // fills the fp32 table
			check(1, first, len(first))                               // all hits
			check(2, first, len(first))                               // another worker's fills
			check(0, first, 0)                                        // the int8 view has its own table
			check(0, []graph.NodeID{100, 5, 17, 299, 0}, 3)           // hits and misses interleaved
			check(2, []graph.NodeID{299, 5, 250, 1}, 1)               // the int8 view's fills are not the fp32 view's
			check(1, []graph.NodeID{250, 299, 5, 100, 0, 240, 17}, 7) // every row a hit, new order
		})
	}
}

// TestAnswerConcurrentFills has every worker of one feature view answer
// every node at once, released together and walking the nodes in one
// order in batches of different shapes, so workers race to claim and
// fill the same slots; under -race (make verify) it checks the claim
// protocol, and every answer must still equal recomputation by
// math.Float32bits.
func TestAnswerConcurrentFills(t *testing.T) {
	g, feats := tableFixture()
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 4)
	store := cache.NewStore(p, g.NumNodes(), feats.Cols, feats)
	store.HostByRange()
	m := nn.NewGraphSAGE(feats.Cols, 16, 4, 2)
	m.Init(graph.NewRNG(11))
	smp := sample.Config{Fanouts: []int{4, 3}}
	inf, err := NewInferencer(InferConfig{Platform: p, Graph: g, Store: store, Model: m, Sampling: smp, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float32, g.NumNodes())
	for v := range want {
		want[v] = recomputeAnswers(g, smp, 13, m, store.FeatView(0), []graph.NodeID{graph.NodeID(v)}).Row(0)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, len(inf.workers))
	for wi := 0; wi < len(inf.workers); wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := inf.Worker(wi)
			rng := graph.NewRNG(uint64(wi))
			<-start
			for lo := 0; lo < g.NumNodes(); {
				hi := min(lo+1+rng.Intn(4), g.NumNodes())
				seeds := make([]graph.NodeID, 0, hi-lo)
				for v := lo; v < hi; v++ {
					seeds = append(seeds, graph.NodeID(v))
				}
				got, _, _ := w.Answer(seeds)
				for i, v := range seeds {
					for j, x := range got.Row(i) {
						if math.Float32bits(x) != math.Float32bits(want[v][j]) {
							errs <- fmt.Errorf("worker %d: node %d logit %d = %v, recomputation gives %v", wi, v, j, x, want[v][j])
							tensor.Put(got)
							return
						}
					}
				}
				tensor.Put(got)
				lo = hi
			}
		}(wi)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var hits int
	for v := range want {
		if inf.Worker(0).answers.state[v].Load() == answerReady {
			hits++
		}
	}
	if hits != g.NumNodes() {
		t.Fatalf("%d of %d nodes ready in the answer table after every worker answered all", hits, g.NumNodes())
	}
}
