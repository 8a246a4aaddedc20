package partition

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// communityGraph builds a graph of k dense clusters with sparse
// inter-cluster edges — the easy case any decent edge-cut partitioner
// must nail.
func communityGraph(k, per int, seed uint64) *graph.Graph {
	n := k * per
	rng := graph.NewRNG(seed)
	b := graph.NewBuilder(n)
	for c := 0; c < k; c++ {
		base := c * per
		for i := 0; i < per*6; i++ {
			u := base + rng.Intn(per)
			v := base + rng.Intn(per)
			if u != v {
				b.AddUndirected(int32(u), int32(v))
			}
		}
	}
	// Sparse cross edges.
	for i := 0; i < n/20; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u != v {
			b.AddUndirected(int32(u), int32(v))
		}
	}
	return b.Build(true)
}

func TestRandomBalanced(t *testing.T) {
	g := communityGraph(4, 100, 1)
	p := Random(g, 4, 7)
	if err := p.Validate(true); err != nil {
		t.Fatal(err)
	}
	for _, s := range p.Sizes() {
		if s != 100 {
			t.Errorf("random part size = %d, want exactly 100", s)
		}
	}
}

func TestMultilevelBeatsRandomOnCommunities(t *testing.T) {
	g := communityGraph(8, 150, 3)
	ml := Multilevel(g, 8, MultilevelConfig{Seed: 11})
	if err := ml.Validate(true); err != nil {
		t.Fatal(err)
	}
	rd := Random(g, 8, 11)
	qm := Evaluate(g, ml)
	qr := Evaluate(g, rd)
	if qm.EdgeCut*3 >= qr.EdgeCut {
		t.Errorf("multilevel cut %d not clearly better than random cut %d", qm.EdgeCut, qr.EdgeCut)
	}
	if qm.Imbalance > 1.35 {
		t.Errorf("multilevel imbalance %.3f too high", qm.Imbalance)
	}
}

func TestMultilevelPowerLaw(t *testing.T) {
	g := graph.PreferentialAttachment(graph.GenerateConfig{NumNodes: 3000, AvgDegree: 8, Seed: 5})
	p := Multilevel(g, 8, MultilevelConfig{Seed: 5})
	if err := p.Validate(true); err != nil {
		t.Fatal(err)
	}
	q := Evaluate(g, p)
	qr := Evaluate(g, Random(g, 8, 5))
	if q.EdgeCut >= qr.EdgeCut {
		t.Errorf("multilevel cut %d >= random cut %d on power-law graph", q.EdgeCut, qr.EdgeCut)
	}
}

func TestMultilevelSinglePart(t *testing.T) {
	g := communityGraph(2, 30, 1)
	p := Multilevel(g, 1, MultilevelConfig{})
	if err := p.Validate(true); err != nil {
		t.Fatal(err)
	}
	if Evaluate(g, p).EdgeCut != 0 {
		t.Error("k=1 partition has nonzero cut")
	}
}

func TestMultilevelDeterministic(t *testing.T) {
	g := communityGraph(4, 80, 2)
	a := Multilevel(g, 4, MultilevelConfig{Seed: 9})
	b := Multilevel(g, 4, MultilevelConfig{Seed: 9})
	for v := range a.Assign {
		if a.Assign[v] != b.Assign[v] {
			t.Fatal("same-seed multilevel runs diverged")
		}
	}
}

func TestMultilevelCoversAllNodesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.ErdosRenyi(graph.GenerateConfig{NumNodes: 200, AvgDegree: 6, Seed: seed})
		p := Multilevel(g, 4, MultilevelConfig{Seed: seed})
		return p.Validate(false) == nil && len(p.Assign) == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestEvaluateCutCountsBothDirections(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddUndirected(0, 1)
	g := b.Build(true)
	p := &Partitioning{Assign: []int32{0, 1}, NumParts: 2}
	q := Evaluate(g, p)
	if q.EdgeCut != 2 {
		t.Errorf("EdgeCut = %d, want 2 (one undirected edge = two directed)", q.EdgeCut)
	}
	if q.CutRatio != 1.0 {
		t.Errorf("CutRatio = %v, want 1", q.CutRatio)
	}
}

func TestValidateRejectsBadAssign(t *testing.T) {
	p := &Partitioning{Assign: []int32{0, 5}, NumParts: 2}
	if err := p.Validate(false); err == nil {
		t.Error("Validate accepted out-of-range part")
	}
	p2 := &Partitioning{Assign: []int32{0, 0}, NumParts: 2}
	if err := p2.Validate(true); err == nil {
		t.Error("strict Validate accepted empty part")
	}
}

func TestMultilevelImbalanceBound(t *testing.T) {
	g := graph.PreferentialAttachment(graph.GenerateConfig{NumNodes: 2000, AvgDegree: 10, Seed: 8})
	p := Multilevel(g, 4, MultilevelConfig{Seed: 8})
	q := Evaluate(g, p)
	// Slack is on vertex weight during refinement; allow generous bound
	// because initial growing may overrun slightly.
	if q.Imbalance > 1.4 {
		t.Errorf("imbalance %.3f exceeds bound", q.Imbalance)
	}
}
