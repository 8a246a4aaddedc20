package engine

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/tensor"
)

// gcnLayer is a third model, defined here and nowhere in the engine: a
// GCN-style layer with no self term,
//
//	h_v = act( (Σ_{u in N(v)} W · x_u) / sqrt(deg v) )
//
// It exists to show that implementing nn.Layer is all a model
// needs to train under every strategy — the tests below add it to the
// bit-identity and semantic-equivalence checks and the engine has no
// line that knows about it.
type gcnLayer struct {
	W    *nn.Param
	relu bool
}

// newGCN builds layers GCN layers: hidden ones of width hidden with
// ReLU, and a linear output layer.
func newGCN(inDim, hidden, classes, layers int) *nn.Model {
	m := &nn.Model{Name: "GCN"}
	for l := 0; l < layers; l++ {
		in, out := hidden, hidden
		if l == 0 {
			in = inDim
		}
		if l == layers-1 {
			out = classes
		}
		m.Layers = append(m.Layers, &gcnLayer{W: nn.NewParam(fmt.Sprintf("gcn%d.W", l), in, out), relu: l < layers-1})
	}
	return m
}

func (l *gcnLayer) InDim() int          { return l.W.W.Rows }
func (l *gcnLayer) OutDim() int         { return l.W.W.Cols }
func (l *gcnLayer) Params() []*nn.Param { return []*nn.Param{l.W} }
func (l *gcnLayer) NeedsDstInSrc() bool { return false }
func (l *gcnLayer) ProjWidth() int      { return l.OutDim() }
func (l *gcnLayer) PreSums() bool       { return true }

func (l *gcnLayer) FLOPs(nSrc, cols, nEdges int64) (dense, sparse float64) {
	out := float64(l.OutDim())
	return 2 * float64(nSrc) * float64(cols) * out, 2 * float64(nEdges) * out
}

func weightRows(m *tensor.Matrix, lo, hi int) *tensor.Matrix {
	return tensor.FromData(hi-lo, m.Cols, m.Data[lo*m.Cols:hi*m.Cols])
}

func (l *gcnLayer) ProjectCols(feats tensor.FeatSource, idx []int32, lo, hi int) *tensor.Matrix {
	return tensor.GatherMatMulSliceSrc(feats, idx, lo, hi, weightRows(l.W.W, lo, hi))
}

func (l *gcnLayer) ProjectColsBackward(feats tensor.FeatSource, idx []int32, lo, hi int, dZ *tensor.Matrix) {
	tensor.GatherTMatMulAccSliceSrc(weightRows(l.W.G, lo, hi), feats, idx, lo, hi, dZ)
}

// scale divides each destination's row by the square root of its degree.
func (l *gcnLayer) scale(blk *sample.Block, s *tensor.Matrix) {
	for i := 0; i < blk.NumDst(); i++ {
		if d := blk.DstDegree(i); d > 1 {
			inv := float32(1 / math.Sqrt(float64(d)))
			for j, v := range s.Row(i) {
				s.Row(i)[j] = v * inv
			}
		}
	}
}

func (l *gcnLayer) Finish(blk *sample.Block, s *tensor.Matrix) (*tensor.Matrix, nn.LayerCtx) {
	l.scale(blk, s)
	if l.relu {
		tensor.ReLUInPlace(s)
	}
	return s, s
}

func (l *gcnLayer) FinishBackward(blk *sample.Block, ctx nn.LayerCtx, dOut *tensor.Matrix) *tensor.Matrix {
	var dS *tensor.Matrix
	if l.relu {
		dS = tensor.ReLUBackward(ctx.(*tensor.Matrix), dOut)
	} else {
		dS = dOut.Clone()
	}
	l.scale(blk, dS)
	return dS
}

func (l *gcnLayer) InputGrad(dZ *tensor.Matrix) *tensor.Matrix {
	return tensor.MatMulT(dZ, l.W.W)
}
