package nn

import (
	"bytes"
	"testing"

	"repro/internal/graph"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m := NewGraphSAGE(8, 16, 4, 2)
	m.Init(graph.NewRNG(1))
	var buf bytes.Buffer
	if err := m.SaveParams(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := NewGraphSAGE(8, 16, 4, 2)
	if err := m2.LoadParams(&buf); err != nil {
		t.Fatal(err)
	}
	p1, p2 := m.Params(), m2.Params()
	for i := range p1 {
		if p1[i].W.MaxAbsDiff(p2[i].W) != 0 {
			t.Fatalf("param %d differs after round trip", i)
		}
	}
}

func TestLoadRejectsMismatchedArchitecture(t *testing.T) {
	m := NewGraphSAGE(8, 16, 4, 2)
	m.Init(graph.NewRNG(1))
	var buf bytes.Buffer
	if err := m.SaveParams(&buf); err != nil {
		t.Fatal(err)
	}
	wrongShape := NewGraphSAGE(8, 32, 4, 2)
	if err := wrongShape.LoadParams(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("accepted checkpoint with wrong shapes")
	}
	wrongCount := NewGraphSAGE(8, 16, 4, 3)
	if err := wrongCount.LoadParams(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("accepted checkpoint with wrong param count")
	}
	gat := NewGAT(8, 8, 2, 4, 2)
	if err := gat.LoadParams(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("accepted checkpoint for different model family")
	}
}

func TestLoadRejectsTrailingBytes(t *testing.T) {
	m := NewGraphSAGE(8, 16, 4, 2)
	m.Init(graph.NewRNG(1))
	var buf bytes.Buffer
	if err := m.SaveParams(&buf); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]byte{{0}, bytes.Repeat([]byte{0xab}, 17), buf.Bytes()} {
		data := append(append([]byte(nil), buf.Bytes()...), extra...)
		m2 := NewGraphSAGE(8, 16, 4, 2)
		if err := m2.LoadParams(bytes.NewReader(data)); err == nil {
			t.Errorf("accepted checkpoint with %d trailing bytes", len(extra))
		}
	}
}

func TestLoadRejectsVersion1(t *testing.T) {
	// A version-1 file is the version-2 layout minus the model-name
	// field: rewrite the header of a fresh save to the old version. No
	// snapshot ever held one, so it is rejected like any other version.
	m := NewGraphSAGE(8, 16, 4, 2)
	m.Init(graph.NewRNG(1))
	var buf bytes.Buffer
	if err := m.SaveParams(&buf); err != nil {
		t.Fatal(err)
	}
	v2 := buf.Bytes()
	nameLen := int(uint32(v2[8]) | uint32(v2[9])<<8 | uint32(v2[10])<<16 | uint32(v2[11])<<24)
	v1 := append([]byte(nil), v2[:8]...)
	v1[4] = 1 // version
	v1 = append(v1, v2[12+nameLen:]...)
	m2 := NewGraphSAGE(8, 16, 4, 2)
	if err := m2.LoadParams(bytes.NewReader(v1)); err == nil {
		t.Fatal("version-1 checkpoint accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	m := NewGraphSAGE(4, 4, 2, 1)
	if err := m.LoadParams(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Error("accepted garbage checkpoint")
	}
}

func TestSaveLoadFileGAT(t *testing.T) {
	m := NewGAT(6, 4, 2, 3, 2)
	m.Init(graph.NewRNG(5))
	var buf bytes.Buffer
	if err := m.SaveParams(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := NewGAT(6, 4, 2, 3, 2)
	if err := m2.LoadParams(&buf); err != nil {
		t.Fatal(err)
	}
	p1, p2 := m.Params(), m2.Params()
	for i := range p1 {
		if p1[i].W.MaxAbsDiff(p2[i].W) != 0 {
			t.Fatalf("GAT param %d differs after round trip", i)
		}
	}
}

func TestSumAggregatorGradients(t *testing.T) {
	g := smallGraph()
	rng := graph.NewRNG(9)
	feats := randomFeatures(g.NumNodes(), 6, rng)
	m := NewGraphSAGEWithAgg(6, 5, 3, 2, AggSum)
	m.Init(graph.NewRNG(10))
	mb := sampleBatch(g, []int{4, 4}, false, []graph.NodeID{5, 9, 30}, 4)
	x := gatherInput(feats, mb.Layer1())
	labels := []int32{0, 2, 1}
	checkModelGradients(t, m, mb, x, labels, 2e-2)
}

func TestAggregatorString(t *testing.T) {
	if AggMean.String() != "mean" || AggSum.String() != "sum" {
		t.Error("aggregator names wrong")
	}
}

// FuzzLoadParams checks the checkpoint parser never panics or
// over-allocates on corrupt input.
func FuzzLoadParams(f *testing.F) {
	m := NewGraphSAGE(4, 4, 2, 1)
	m.Init(graph.NewRNG(1))
	var buf bytes.Buffer
	if err := m.SaveParams(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:8])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		target := NewGraphSAGE(4, 4, 2, 1)
		if err := target.LoadParams(bytes.NewReader(data)); err != nil {
			return
		}
		// Accepted checkpoints must leave valid shapes.
		for _, p := range target.Params() {
			if len(p.W.Data) != p.W.Rows*p.W.Cols {
				t.Fatal("accepted checkpoint corrupted shapes")
			}
		}
	})
}
