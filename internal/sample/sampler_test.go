package sample

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.PreferentialAttachment(graph.GenerateConfig{NumNodes: 500, AvgDegree: 8, Seed: 1})
	return g
}

func TestSampleStructure(t *testing.T) {
	g := testGraph(t)
	s := NewSampler(g, Config{Fanouts: []int{10, 10, 10}}, graph.NewRNG(1))
	seeds := []graph.NodeID{3, 77, 200, 444}
	mb := s.Sample(seeds)
	if err := mb.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(mb.Blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(mb.Blocks))
	}
	top := mb.Blocks[2]
	if top.NumDst() != 4 {
		t.Errorf("top dst = %d, want 4", top.NumDst())
	}
	// Fanout bound: each dst has at most 10 sampled neighbors.
	for _, b := range mb.Blocks {
		for i := range b.Dst {
			if d := b.DstDegree(i); d > 10 {
				t.Errorf("dst degree %d exceeds fanout 10", d)
			}
		}
	}
}

func TestSampleFanoutRespectsDegree(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(1, 0)
	b.AddEdge(2, 0)
	g := b.Build(true)
	s := NewSampler(g, Config{Fanouts: []int{10}}, graph.NewRNG(1))
	mb := s.Sample([]graph.NodeID{0})
	blk := mb.Layer1()
	if blk.DstDegree(0) != 2 {
		t.Errorf("degree = %d, want all 2 neighbors when degree < fanout", blk.DstDegree(0))
	}
}

func TestSampleDistinctNeighbors(t *testing.T) {
	g := testGraph(t)
	s := NewSampler(g, Config{Fanouts: []int{5}}, graph.NewRNG(2))
	f := func(seedSel uint8) bool {
		v := graph.NodeID(int(seedSel) % g.NumNodes())
		mb := s.Sample([]graph.NodeID{v})
		blk := mb.Layer1()
		seen := map[int32]bool{}
		for _, si := range blk.DstSources(0) {
			if seen[si] {
				return false
			}
			seen[si] = true
		}
		return len(seen) <= 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSampleSubsetOfTrueNeighbors(t *testing.T) {
	g := testGraph(t)
	s := NewSampler(g, Config{Fanouts: []int{4}}, graph.NewRNG(3))
	for v := graph.NodeID(0); v < 50; v++ {
		mb := s.Sample([]graph.NodeID{v})
		blk := mb.Layer1()
		truth := map[graph.NodeID]bool{}
		for _, u := range g.Neighbors(v) {
			truth[u] = true
		}
		for _, si := range blk.DstSources(0) {
			if !truth[blk.Src[si]] {
				t.Fatalf("sampled non-neighbor %d of %d", blk.Src[si], v)
			}
		}
	}
}

func TestIncludeDstInSrc(t *testing.T) {
	g := testGraph(t)
	s := NewSampler(g, Config{Fanouts: []int{5, 5}, IncludeDstInSrc: true}, graph.NewRNG(4))
	mb := s.Sample([]graph.NodeID{1, 2, 3})
	for _, b := range mb.Blocks {
		for i, v := range b.Dst {
			if b.Src[i] != v {
				t.Fatalf("src[%d] = %d, want dst %d first", i, b.Src[i], v)
			}
		}
	}
	if err := mb.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDeterministicWithSeed(t *testing.T) {
	g := testGraph(t)
	a := NewSampler(g, Config{Fanouts: []int{10, 10}}, graph.NewRNG(9)).Sample([]graph.NodeID{5, 6})
	b := NewSampler(g, Config{Fanouts: []int{10, 10}}, graph.NewRNG(9)).Sample([]graph.NodeID{5, 6})
	if len(a.Layer1().Src) != len(b.Layer1().Src) {
		t.Fatal("same-seed samples differ in size")
	}
	for i := range a.Layer1().Src {
		if a.Layer1().Src[i] != b.Layer1().Src[i] {
			t.Fatal("same-seed samples differ")
		}
	}
}

func TestSrcDeduplicated(t *testing.T) {
	g := testGraph(t)
	s := NewSampler(g, Config{Fanouts: []int{10, 10}}, graph.NewRNG(5))
	mb := s.Sample([]graph.NodeID{10, 11, 12, 13, 14})
	for _, b := range mb.Blocks {
		seen := map[graph.NodeID]bool{}
		for _, u := range b.Src {
			if seen[u] {
				t.Fatalf("duplicate src node %d", u)
			}
			seen[u] = true
		}
	}
}

func TestSplitEven(t *testing.T) {
	seeds := make([]graph.NodeID, 103)
	for i := range seeds {
		seeds[i] = graph.NodeID(i)
	}
	plan := SplitEven(seeds, 4, graph.NewRNG(1))
	total := 0
	seen := map[graph.NodeID]bool{}
	for _, ws := range plan.PerWorker {
		total += len(ws)
		for _, s := range ws {
			if seen[s] {
				t.Fatalf("seed %d assigned twice", s)
			}
			seen[s] = true
		}
	}
	if total != 103 {
		t.Errorf("total seeds = %d, want 103", total)
	}
	if nb := plan.NumBatches(10); nb != 3 {
		t.Errorf("NumBatches = %d, want 3 (27 max per worker / 10)", nb)
	}
}

func TestSplitByOwner(t *testing.T) {
	seeds := []graph.NodeID{0, 1, 2, 3, 4, 5}
	assign := []int32{1, 0, 1, 0, 1, 1}
	plan := SplitByOwner(seeds, assign, 2, graph.NewRNG(1))
	if len(plan.PerWorker[0]) != 2 || len(plan.PerWorker[1]) != 4 {
		t.Fatalf("owner split sizes = %d/%d, want 2/4",
			len(plan.PerWorker[0]), len(plan.PerWorker[1]))
	}
	for w, ws := range plan.PerWorker {
		for _, s := range ws {
			if assign[s] != int32(w) {
				t.Errorf("seed %d on worker %d, owner %d", s, w, assign[s])
			}
		}
	}
}

func TestBatchSlicing(t *testing.T) {
	plan := &SeedPlan{PerWorker: [][]graph.NodeID{{1, 2, 3, 4, 5}, {6, 7}}}
	if got := plan.Batch(0, 1, 2); len(got) != 2 || got[0] != 3 {
		t.Errorf("Batch(0,1,2) = %v", got)
	}
	if got := plan.Batch(1, 1, 2); got != nil {
		t.Errorf("Batch(1,1,2) = %v, want nil (worker exhausted)", got)
	}
	if got := plan.Batch(0, 2, 2); len(got) != 1 {
		t.Errorf("tail batch = %v, want single element", got)
	}
}

func TestCountLayer1SrcAccesses(t *testing.T) {
	g := testGraph(t)
	s := NewSampler(g, Config{Fanouts: []int{10, 10}}, graph.NewRNG(6))
	freq := make([]int64, g.NumNodes())
	mb := s.Sample([]graph.NodeID{1, 2, 3})
	CountLayer1SrcAccesses(freq, mb)
	var total int64
	for _, f := range freq {
		total += f
	}
	if total != mb.Layer1().NumEdges() {
		t.Errorf("access total = %d, want %d (one per sampled edge)", total, mb.Layer1().NumEdges())
	}
}

func TestZeroFanoutLayer(t *testing.T) {
	g := testGraph(t)
	s := NewSampler(g, Config{Fanouts: []int{0}}, graph.NewRNG(7))
	mb := s.Sample([]graph.NodeID{1})
	if mb.Layer1().NumEdges() != 0 {
		t.Errorf("fanout 0 produced %d edges", mb.Layer1().NumEdges())
	}
	if err := mb.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStampWrapDrawsLikeFresh puts a sampler's stamp generations next
// to the int32 wraparound — at MaxInt32, the last value before the
// wrap, and at -2, where an unchecked counter lands after 2^32 - 2
// draws, one bump short of -1 — with stale stamps left by earlier
// draws, and checks that it draws exactly what a fresh sampler with
// the same RNG state draws, node-wise (Floyd) and layer-wise.
func TestStampWrapDrawsLikeFresh(t *testing.T) {
	g := testGraph(t)
	seeds := []graph.NodeID{5, 6, 7, 40, 41, 300}
	for _, method := range []Method{NodeWise, LayerWise} {
		for _, at := range []int32{math.MaxInt32, -2} {
			cfg := Config{Fanouts: []int{3, 3}, Method: method}
			worn := NewSampler(g, cfg, graph.NewRNG(11))
			for i := 0; i < 4; i++ {
				worn.Sample(seeds)
			}
			fresh := NewSampler(g, cfg, graph.NewRNG(1))
			fresh.SetRNGState(worn.RNGState())
			worn.epoch, worn.srcGen = at, at
			for i := 0; i < 4; i++ {
				want, got := fresh.Sample(seeds), worn.Sample(seeds)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("method %d, counters at %d: batch %d differs from a fresh sampler's", method, at, i)
				}
			}
		}
	}
}

// TestKeyedSamplerDrawsPerNode: a keyed sampler draws each (layer,
// node) as a batch of that node alone would, whatever shares its batch
// and whatever the sampler drew before, and the key changes the draw.
func TestKeyedSamplerDrawsPerNode(t *testing.T) {
	g := testGraph(t)
	cfg := Config{Fanouts: []int{4, 3}}
	// picks lists each destination's sampled neighbours per layer.
	picks := func(mb *MiniBatch) []map[graph.NodeID][]graph.NodeID {
		out := make([]map[graph.NodeID][]graph.NodeID, len(mb.Blocks))
		for l, b := range mb.Blocks {
			out[l] = map[graph.NodeID][]graph.NodeID{}
			for i, v := range b.Dst {
				for e := b.EdgePtr[i]; e < b.EdgePtr[i+1]; e++ {
					out[l][v] = append(out[l][v], b.Src[b.SrcIdx[e]])
				}
			}
		}
		return out
	}
	keyed := func(key uint64) *Sampler {
		s := NewSampler(g, cfg, graph.NewRNG(key))
		s.SetKey(key)
		return s
	}
	batched := keyed(5)
	batched.Sample([]graph.NodeID{9, 8, 7}) // advance any state a draw could carry
	batch := []graph.NodeID{3, 77, 200, 444, 0, 1}
	got := picks(batched.Sample(batch))
	differs := false
	for _, v := range batch {
		alone := picks(keyed(5).Sample([]graph.NodeID{v}))
		other := picks(keyed(6).Sample([]graph.NodeID{v}))
		for l := range alone {
			for u, want := range alone[l] {
				if !reflect.DeepEqual(got[l][u], want) {
					t.Fatalf("layer %d, node %d: batched draw %v, alone %v", l, u, got[l][u], want)
				}
			}
		}
		differs = differs || !reflect.DeepEqual(alone, other)
	}
	if !differs {
		t.Fatal("keys 5 and 6 draw the same neighbours for every node")
	}
}
