package nn

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/sample"
	"repro/internal/tensor"
)

// gatheredCase is one model family of the gathered-path tests, built at
// a given input width and depth.
type gatheredCase struct {
	name  string
	build func(in, layers int) *Model
}

func gatheredCases(classes int) []gatheredCase {
	return []gatheredCase{
		{"sage-mean", func(in, layers int) *Model { return NewGraphSAGE(in, 8, classes, layers) }},
		{"sage-sum", func(in, layers int) *Model { return NewGraphSAGEWithAgg(in, 8, classes, layers, AggSum) }},
		{"gat-1head", func(in, layers int) *Model { return NewGAT(in, 8, 1, classes, layers) }},
		{"gat-4head", func(in, layers int) *Model { return NewGAT(in, 8, 4, classes, layers) }},
	}
}

// paramGrads copies every parameter gradient of m.
func paramGrads(m *Model) [][]float32 {
	var gs [][]float32
	for _, p := range m.Params() {
		gs = append(gs, append([]float32(nil), p.G.Data...))
	}
	return gs
}

// TestForwardGatheredMatchesForward holds the model's forward and
// backward (ForwardGathered, every layer as its two halves, then
// Backward on its state) to the reference composition (refForward on
// the gathered copy of the same rows, then refBackward) by
// math.Float32bits: the logits and every parameter gradient, for SAGE
// mean and sum and GAT with one and four heads, at one to three layers,
// and for SAGE on a layer-0 block with no sources.
func TestForwardGatheredMatchesForward(t *testing.T) {
	const in, classes = 12, 5
	g := smallGraph()
	feats := randomFeatures(g.NumNodes(), in, graph.NewRNG(21))
	seeds := []graph.NodeID{3, 17, 40, 41, 88, 119}
	for _, tc := range gatheredCases(classes) {
		for layers := 1; layers <= 3; layers++ {
			for _, empty := range []bool{false, true} {
				m := tc.build(in, layers)
				if empty && m.NeedsDstInSrc() {
					continue // attention reads every destination's own row
				}
				name := fmt.Sprintf("%s/layers%d", tc.name, layers)
				fanouts := make([]int, layers)
				for i := range fanouts {
					fanouts[i] = 4
				}
				mb := sampleBatch(g, fanouts, m.NeedsDstInSrc(), seeds, 23)
				if empty {
					name += "/no-sources"
					b := mb.Blocks[0]
					mb.Blocks[0] = &sample.Block{Dst: b.Dst, EdgePtr: make([]int64, b.NumDst()+1)}
				}
				m.Init(graph.NewRNG(22))
				idx := mb.Layer1().Src
				dLogits := randomFeatures(len(mb.Seeds), classes, graph.NewRNG(24))

				m.ZeroGrad()
				want := refForward(m, mb, tensor.Gather(feats, idx))
				refBackward(m, mb, want, dLogits.Clone())
				wantG := paramGrads(m)

				m.ZeroGrad()
				got := m.ForwardGathered(mb, tensor.FS(feats), idx)
				bitsEqual(t, name+" logits", got.Logits.Data, want.logits.Data)
				m.Backward(mb, got, dLogits.Clone())
				for i, gg := range paramGrads(m) {
					bitsEqual(t, fmt.Sprintf("%s grad %s", name, m.Params()[i].Name), gg, wantG[i])
				}
			}
		}
	}
}

// TestBackwardLeavesDLogitsUntouched: Backward reads the caller's
// dLogits and never writes it, at every depth: the output layer's
// FinishBackward may overwrite its dOut (SAGE's, with no activation,
// scales it in place), and the output layer receives dLogits.
func TestBackwardLeavesDLogitsUntouched(t *testing.T) {
	const in, classes = 12, 5
	g := smallGraph()
	feats := randomFeatures(g.NumNodes(), in, graph.NewRNG(31))
	seeds := []graph.NodeID{5, 9, 60, 77}
	for _, tc := range gatheredCases(classes) {
		for layers := 1; layers <= 2; layers++ {
			m := tc.build(in, layers)
			m.Init(graph.NewRNG(32))
			fanouts := make([]int, layers)
			for i := range fanouts {
				fanouts[i] = 5
			}
			mb := sampleBatch(g, fanouts, m.NeedsDstInSrc(), seeds, 33)
			idx := mb.Layer1().Src
			dLogits := randomFeatures(len(mb.Seeds), classes, graph.NewRNG(34))
			keep := dLogits.Clone()

			m.Backward(mb, m.ForwardGathered(mb, tensor.FS(feats), idx), dLogits)
			bitsEqual(t, fmt.Sprintf("%s/layers%d dLogits", tc.name, layers), dLogits.Data, keep.Data)
		}
	}
}

// TestForwardGatheredRejectsIndexCount: an index vector whose length is
// not the layer-0 block's source count panics with a message naming
// both counts, rather than projecting the wrong rows.
func TestForwardGatheredRejectsIndexCount(t *testing.T) {
	const in, classes = 12, 5
	g := smallGraph()
	feats := randomFeatures(g.NumNodes(), in, graph.NewRNG(41))
	for _, tc := range gatheredCases(classes) {
		m := tc.build(in, 2)
		m.Init(graph.NewRNG(42))
		mb := sampleBatch(g, []int{4, 4}, m.NeedsDstInSrc(), []graph.NodeID{2, 50, 101}, 43)
		nSrc := mb.Layer1().NumSrc()
		for _, n := range []int{nSrc - 1, nSrc + 1} {
			idx := make([]int32, n)
			msg := func() (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				m.ForwardGathered(mb, tensor.FS(feats), idx)
				return "no panic"
			}()
			if !strings.Contains(msg, fmt.Sprint(n)) || !strings.Contains(msg, fmt.Sprint(nSrc)) {
				t.Errorf("%s: %d indices for %d sources: panic %q does not name both counts", tc.name, n, nSrc, msg)
			}
		}
	}
}
