package graph

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(1, 0)
	b.AddEdge(2, 0)
	b.AddEdge(3, 1)
	b.AddEdge(2, 0) // duplicate
	b.AddEdge(0, 0) // self loop
	g := b.Build(true)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := g.NumNodes(); got != 4 {
		t.Errorf("NumNodes = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 3 {
		t.Errorf("NumEdges = %d, want 3 (dup and self-loop dropped)", got)
	}
	if got := g.Degree(0); got != 2 {
		t.Errorf("Degree(0) = %d, want 2", got)
	}
	nb := g.Neighbors(0)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 2 {
		t.Errorf("Neighbors(0) = %v, want [1 2]", nb)
	}
	if got := g.Degree(2); got != 0 {
		t.Errorf("Degree(2) = %d, want 0", got)
	}
}

func TestBuilderKeepSelfLoops(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0)
	b.AddEdge(1, 0)
	g := b.Build(false)
	if got := g.NumEdges(); got != 2 {
		t.Errorf("NumEdges = %d, want 2", got)
	}
}

// refBuild is Build's contract stated directly: each destination's
// sources, sorted and deduplicated, self-loops dropped if asked.
func refBuild(n int, srcs, dsts []NodeID, dropSelfLoops bool) *Graph {
	rows := make([][]NodeID, n)
	for i, v := range dsts {
		if dropSelfLoops && srcs[i] == v {
			continue
		}
		rows[v] = append(rows[v], srcs[i])
	}
	g := &Graph{Indptr: make([]int64, n+1)}
	for v, row := range rows {
		slices.Sort(row)
		g.Indices = append(g.Indices, slices.Compact(row)...)
		g.Indptr[v+1] = int64(len(g.Indices))
	}
	return g
}

// TestBuilderMatchesSortDedup: Build equals the sort-and-dedup reference
// on random edge lists dense in duplicates and self-loops, with and
// without dropping self-loops, isolated nodes and empty lists included.
func TestBuilderMatchesSortDedup(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint16, drop bool) bool {
		n := int(nRaw%60) + 1
		m := int(mRaw % 2000)
		r := NewRNG(seed)
		b := NewBuilder(n)
		// A small target range for half the edges makes repeats common.
		for i := 0; i < m; i++ {
			u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
			if i%2 == 1 {
				v = NodeID(r.Intn(min(n, 4)))
			}
			if i%9 == 0 {
				u = v
			}
			b.AddEdge(u, v)
		}
		g := b.Build(drop)
		return g.Validate() == nil && csrEqual(g, refBuild(n, b.srcs, b.dsts, drop))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func csrEqual(a, b *Graph) bool {
	if len(a.Indptr) != len(b.Indptr) || len(a.Indices) != len(b.Indices) {
		return false
	}
	for i := range a.Indptr {
		if a.Indptr[i] != b.Indptr[i] {
			return false
		}
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			return false
		}
	}
	return true
}

func TestPreferentialAttachment(t *testing.T) {
	g := PreferentialAttachment(GenerateConfig{NumNodes: 1000, AvgDegree: 8, Seed: 1})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	st := ComputeDegreeStats(g)
	if st.Mean < 4 || st.Mean > 16 {
		t.Errorf("mean degree = %.1f, want near 8", st.Mean)
	}
	// Power-law graphs have highly unequal degrees.
	if st.GiniCoefficient < 0.2 {
		t.Errorf("gini = %.3f, want power-law inequality > 0.2", st.GiniCoefficient)
	}
	if st.Max < 5*st.P50 {
		t.Errorf("max degree %d not heavy-tailed vs median %d", st.Max, st.P50)
	}
}

func TestErdosRenyiUniformity(t *testing.T) {
	g := ErdosRenyi(GenerateConfig{NumNodes: 2000, AvgDegree: 10, Seed: 7})
	st := ComputeDegreeStats(g)
	if st.GiniCoefficient > 0.3 {
		t.Errorf("gini = %.3f, want near-uniform < 0.3", st.GiniCoefficient)
	}
}

func TestRMATSkewOrdering(t *testing.T) {
	skewed := RMAT(RMATConfig{GenerateConfig: GenerateConfig{NumNodes: 2000, AvgDegree: 10, Seed: 3}, A: 0.57, B: 0.19, C: 0.19})
	flat := RMAT(RMATConfig{GenerateConfig: GenerateConfig{NumNodes: 2000, AvgDegree: 10, Seed: 3}, A: 0.25, B: 0.25, C: 0.25})
	gs := ComputeDegreeStats(skewed).GiniCoefficient
	gf := ComputeDegreeStats(flat).GiniCoefficient
	if gs <= gf {
		t.Errorf("RMAT skew knob ineffective: gini skewed %.3f <= flat %.3f", gs, gf)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := PreferentialAttachment(GenerateConfig{NumNodes: 300, AvgDegree: 6, Seed: 42})
	b := PreferentialAttachment(GenerateConfig{NumNodes: 300, AvgDegree: 6, Seed: 42})
	if !csrEqual(a, b) {
		t.Error("same seed produced different graphs")
	}
	c := PreferentialAttachment(GenerateConfig{NumNodes: 300, AvgDegree: 6, Seed: 43})
	if csrEqual(a, c) {
		t.Error("different seeds produced identical graphs")
	}
}

func TestAccessSkewBands(t *testing.T) {
	// 100 nodes, node 0 gets 1000 accesses, the rest 1 each.
	freq := make([]int64, 100)
	for i := range freq {
		freq[i] = 1
	}
	freq[0] = 1000
	buckets := AccessSkew(freq)
	if len(buckets) != 6 {
		t.Fatalf("got %d buckets, want 6", len(buckets))
	}
	if buckets[0].AccessRatio < 0.9 {
		t.Errorf("top-1%% ratio = %.3f, want > 0.9", buckets[0].AccessRatio)
	}
	var total float64
	for _, b := range buckets {
		total += b.AccessRatio
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("bucket ratios sum to %.4f, want 1", total)
	}
}

func TestAccessSkewEmptyAndZero(t *testing.T) {
	buckets := AccessSkew(make([]int64, 10))
	for _, b := range buckets {
		if b.AccessRatio != 0 {
			t.Errorf("zero accesses gave nonzero ratio %v", b)
		}
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		p := NewRNG(seed).Perm(50)
		seen := make(map[int32]bool, 50)
		for _, v := range p {
			if v < 0 || v >= 50 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(seen) == 50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRNGNormFloat32Moments(t *testing.T) {
	r := NewRNG(5)
	n := 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := float64(r.NormFloat32())
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Errorf("normal mean = %.4f, want ~0", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Errorf("normal variance = %.4f, want ~1", variance)
	}
}

func TestDegreeStatsEmpty(t *testing.T) {
	g := NewBuilder(0).Build(true)
	st := ComputeDegreeStats(g)
	if st.Mean != 0 {
		t.Errorf("empty graph mean = %v", st.Mean)
	}
}

var sinkGraph *Graph

// BenchmarkBuilderBuild builds the CSR of a shuffled edge list the size
// of the PS preset's RMAT edges at the benchmark workloads' scale (44000
// nodes, 24 average degree, both directions), one edge in eight
// repeated.
func BenchmarkBuilderBuild(b *testing.B) {
	g := RMAT(RMATConfig{
		GenerateConfig: GenerateConfig{NumNodes: 44000, AvgDegree: 24, Seed: 1001},
		A:              0.72, B: 0.28 / 3, C: 0.28 / 3,
	})
	bld := NewBuilder(g.NumNodes())
	r := NewRNG(5)
	for v := 0; v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(NodeID(v)) {
			bld.AddEdge(u, NodeID(v))
			if r.Intn(8) == 0 {
				bld.AddEdge(u, NodeID(v))
			}
		}
	}
	r.Shuffle(len(bld.srcs), func(i, j int) {
		bld.srcs[i], bld.srcs[j] = bld.srcs[j], bld.srcs[i]
		bld.dsts[i], bld.dsts[j] = bld.dsts[j], bld.dsts[i]
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkGraph = bld.Build(true)
	}
}
