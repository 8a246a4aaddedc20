package sample

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
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
	if err := validateBatch(mb); err != nil {
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
	if err := validateBatch(mb); err != nil {
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
	if err := validateBatch(mb); err != nil {
		t.Fatal(err)
	}
}

// TestStampWrapDrawsLikeFresh puts a sampler's src stamp generation
// next to the int32 wraparound — at MaxInt32, the last value before the
// wrap, and at -2, where an unchecked counter lands after 2^32 - 2
// layers, one bump short of -1 — with stale stamps left by earlier
// draws, and checks that it draws exactly what a fresh sampler with
// the same RNG state draws.
func TestStampWrapDrawsLikeFresh(t *testing.T) {
	g := testGraph(t)
	seeds := []graph.NodeID{5, 6, 7, 40, 41, 300}
	for _, at := range []int32{math.MaxInt32, -2} {
		cfg := Config{Fanouts: []int{3, 3}}
		worn := NewSampler(g, cfg, graph.NewRNG(11))
		for i := 0; i < 4; i++ {
			worn.Sample(seeds)
		}
		fresh := NewSampler(g, cfg, graph.NewRNG(1))
		fresh.SetRNGState(worn.RNGState())
		worn.srcGen = at
		for i := 0; i < 4; i++ {
			want, got := fresh.Sample(seeds), worn.Sample(seeds)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("generation at %d: batch %d differs from a fresh sampler's", at, i)
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

func TestFullMethodDeterministicAndComplete(t *testing.T) {
	g := graph.PreferentialAttachment(graph.GenerateConfig{NumNodes: 150, AvgDegree: 6, Seed: 11})
	a := NewSampler(g, Config{Fanouts: []int{1, 1}, Method: Full}, graph.NewRNG(1)).Sample([]graph.NodeID{3, 7})
	b := NewSampler(g, Config{Fanouts: []int{1, 1}, Method: Full}, graph.NewRNG(99)).Sample([]graph.NodeID{3, 7})
	la, lb := a.Layer1(), b.Layer1()
	if la.NumEdges() != lb.NumEdges() {
		t.Fatal("full sampling not deterministic across RNG seeds")
	}
	top := a.Blocks[1]
	for i, v := range top.Dst {
		if top.DstDegree(i) != g.Degree(v) {
			t.Errorf("full sampling dropped neighbors of %d: %d vs %d", v, top.DstDegree(i), g.Degree(v))
		}
	}
}

// drawGoldenGraph is a 96-node graph whose every fourth node is a hub
// of degree 24–40, far above the fanouts, and whose rows repeat
// neighbours: drawn with replacement, and with each row's first
// neighbour listed twice more, so Floyd's step meets a node it has
// already chosen both by redrawing it and through a duplicate entry.
func drawGoldenGraph() *graph.Graph {
	const n = 96
	rng := graph.NewRNG(2024)
	g := &graph.Graph{Indptr: make([]int64, n+1)}
	for v := 0; v < n; v++ {
		d := 1 + v%6
		if v%4 == 0 {
			d = 24 + v%17
		}
		first := graph.NodeID(rng.Intn(n))
		g.Indices = append(g.Indices, first)
		for i := 1; i < d; i++ {
			g.Indices = append(g.Indices, graph.NodeID(rng.Intn(n)))
		}
		if d > 2 {
			g.Indices = append(g.Indices, first, first)
		}
		g.Indptr[v+1] = int64(len(g.Indices))
	}
	return g
}

// TestNodeWiseDrawGolden pins node-wise sampling's draws: an FNV-64a
// over every block of five batches, unkeyed and keyed (SetKey), with
// and without the destinations in the source list. Any change to
// which neighbours a draw picks, or to the order it lists them, moves
// a hash. The hashes come from an earlier implementation of the Floyd
// step's membership test, so one that moves is a change of draws, not
// a golden to regenerate.
func TestNodeWiseDrawGolden(t *testing.T) {
	g := drawGoldenGraph()
	batches := [][]graph.NodeID{{0, 4, 8, 1}, {12, 13, 0, 95}, {40, 44, 2, 3, 5}, {92, 88, 84}, {16, 20, 24, 28, 32, 36}}
	digest := func(s *Sampler) uint64 {
		h := fnv.New64a()
		var buf []byte
		for _, seeds := range batches {
			mb := s.Sample(seeds)
			if err := validateBatch(mb); err != nil {
				t.Fatal(err)
			}
			for _, b := range mb.Blocks {
				buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(b.Dst)))
				for _, u := range b.Src {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(u))
				}
				for _, e := range b.EdgePtr {
					buf = binary.LittleEndian.AppendUint64(buf, uint64(e))
				}
				for _, i := range b.SrcIdx {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(i))
				}
				h.Write(buf)
			}
		}
		return h.Sum64()
	}
	for _, tc := range []struct {
		name  string
		dstIn bool
		key   uint64
		keyed bool
		want  uint64
	}{
		{"unkeyed", false, 0, false, 0x76a0de6a1fe17d5b},
		{"unkeyed-dst-in-src", true, 0, false, 0x546398884bb86b2e},
		{"keyed", false, 42, true, 0xcc92946c77b4bac1},
		{"keyed-dst-in-src", true, 7, true, 0x63143b411d767888},
	} {
		s := NewSampler(g, Config{Fanouts: []int{10, 4}, IncludeDstInSrc: tc.dstIn}, graph.NewRNG(31))
		if tc.keyed {
			s.SetKey(tc.key)
		}
		if got := digest(s); got != tc.want {
			t.Errorf("%s: draw digest %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// validateBlock checks a block's CSR invariants: one pointer per
// destination plus the leading 0, monotone, ending at the edge count,
// and every edge naming a source position in range.
func validateBlock(b *Block) error {
	if len(b.EdgePtr) != len(b.Dst)+1 {
		return fmt.Errorf("edgeptr len %d, want %d", len(b.EdgePtr), len(b.Dst)+1)
	}
	if b.EdgePtr[0] != 0 {
		return fmt.Errorf("edgeptr[0] != 0")
	}
	for i := 1; i < len(b.EdgePtr); i++ {
		if b.EdgePtr[i] < b.EdgePtr[i-1] {
			return fmt.Errorf("edgeptr not monotone at %d", i)
		}
	}
	if b.EdgePtr[len(b.Dst)] != int64(len(b.SrcIdx)) {
		return fmt.Errorf("edgeptr end %d != len(srcidx) %d", b.EdgePtr[len(b.Dst)], len(b.SrcIdx))
	}
	for i, s := range b.SrcIdx {
		if s < 0 || int(s) >= len(b.Src) {
			return fmt.Errorf("srcidx[%d] = %d out of range", i, s)
		}
	}
	return nil
}

// validateBatch checks every block's invariants and the stitching
// between them: the top block's destinations are the seeds, and each
// block's destinations are the sources of the block above.
func validateBatch(m *MiniBatch) error {
	for l, b := range m.Blocks {
		if err := validateBlock(b); err != nil {
			return fmt.Errorf("block %d: %w", l, err)
		}
	}
	top := m.Blocks[len(m.Blocks)-1]
	if !slices.Equal(top.Dst, m.Seeds) {
		return fmt.Errorf("top block's dst %v, want the seeds %v", top.Dst, m.Seeds)
	}
	for l := 0; l+1 < len(m.Blocks); l++ {
		if lo, hi := m.Blocks[l], m.Blocks[l+1]; !slices.Equal(lo.Dst, hi.Src) {
			return fmt.Errorf("blocks %d/%d: dst of the lower is not src of the upper", l, l+1)
		}
	}
	return nil
}
