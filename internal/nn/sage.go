package nn

import (
	"repro/internal/sample"
	"repro/internal/tensor"
)

// Aggregator selects how a SAGE layer merges neighbor messages. Both
// choices decompose into per-owner partial sums (plus a final
// normalization for the mean), which is what lets SNP/NFP aggregate
// partially (paper Table 1).
type Aggregator int

// Aggregators.
const (
	// AggMean divides the neighbor sum by the sampled degree
	// (GraphSAGE-mean, the paper's default).
	AggMean Aggregator = iota
	// AggSum keeps the raw neighbor sum (GIN-style).
	AggSum
)

// String implements fmt.Stringer.
func (a Aggregator) String() string {
	if a == AggSum {
		return "sum"
	}
	return "mean"
}

// SAGELayer implements the paper's Eq. (1):
//
//	h_v = act( AGG_{u in N(v)} ( W · h_u ) )
//
// The computation is decomposed into a projection (dense: Z = H W) and
// an aggregation (sparse: segment sum/mean), matching the Figure 5
// tensor abstraction; the Layer interface exposes the two halves so
// the execution engine can distribute them independently (NFP partitions
// the projection's columns; SNP/DNP split the aggregation by
// source/destination nodes).
type SAGELayer struct {
	W   *Param
	Act Activation
	Agg Aggregator
}

// NewSAGELayer creates a GraphSAGE layer mapping in -> out dims with
// mean aggregation.
func NewSAGELayer(name string, in, out int, act Activation) *SAGELayer {
	return &SAGELayer{W: NewParam(name+".W", in, out), Act: act, Agg: AggMean}
}

// InDim implements Layer.
func (l *SAGELayer) InDim() int { return l.W.W.Rows }

// OutDim implements Layer.
func (l *SAGELayer) OutDim() int { return l.W.W.Cols }

// Params implements Layer.
func (l *SAGELayer) Params() []*Param { return []*Param{l.W} }

// NeedsDstInSrc implements Layer; SAGE mean aggregation only reads
// neighbor embeddings.
func (l *SAGELayer) NeedsDstInSrc() bool { return false }

// ProjWidth implements Layer.
func (l *SAGELayer) ProjWidth() int { return l.OutDim() }

// PreSums implements Layer: mean and sum aggregation are segment
// sums of projection rows (paper Table 1).
func (l *SAGELayer) PreSums() bool { return true }

// ProjectCols implements Layer; the kernel reads the feature store
// through idx with no gathered copy, dequantizing warm-tier rows on the
// fly.
func (l *SAGELayer) ProjectCols(feats tensor.FeatSource, idx []int32, lo, hi int) *tensor.Matrix {
	return tensor.GatherMatMulSliceSrc(feats, idx, lo, hi, rowShard(l.W.W, lo, hi))
}

// ProjectColsBackward implements Layer: dW[lo:hi] += feats[idx][:, lo:hi]ᵀ dZ.
func (l *SAGELayer) ProjectColsBackward(feats tensor.FeatSource, idx []int32, lo, hi int, dZ *tensor.Matrix) {
	tensor.GatherTMatMulAccSliceSrc(rowShard(l.W.G, lo, hi), feats, idx, lo, hi, dZ)
}

// FLOPs implements Layer.
func (l *SAGELayer) FLOPs(nSrc, cols, nEdges int64) (dense, sparse float64) {
	out := float64(l.OutDim())
	return 2 * float64(nSrc) * float64(cols) * out, 2 * float64(nEdges) * out
}

// InputGrad implements Layer: dZ · Wᵀ.
func (l *SAGELayer) InputGrad(dZ *tensor.Matrix) *tensor.Matrix {
	return tensor.MatMulT(dZ, l.W.W)
}

// normalize applies the aggregator's normalization to per-destination
// sums in place (identity for AggSum, divide by sampled degree for
// AggMean). Its own transpose, so the backward pass reuses it.
func (l *SAGELayer) normalize(blk *sample.Block, s *tensor.Matrix) {
	if l.Agg != AggMean {
		return
	}
	for i := 0; i < blk.NumDst(); i++ {
		if d := blk.DstDegree(i); d > 1 {
			inv := float32(1.0 / float64(d))
			row := s.Row(i)
			for j := range row {
				row[j] *= inv
			}
		}
	}
}

// Finish implements Layer: normalize the summed projections and
// activate, both in place. The context is the output itself.
func (l *SAGELayer) Finish(blk *sample.Block, s *tensor.Matrix) (*tensor.Matrix, LayerCtx) {
	l.normalize(blk, s)
	if l.Act == ActReLU {
		tensor.ReLUInPlace(s)
	}
	return s, s
}

// FinishBackward implements Layer: the activation's mask, then the
// normalization. With no activation (an output layer) it scales dOut
// in place and returns it.
func (l *SAGELayer) FinishBackward(blk *sample.Block, ctx LayerCtx, dOut *tensor.Matrix) *tensor.Matrix {
	dS := activationBackward(l.Act, ctx.(*tensor.Matrix), dOut)
	l.normalize(blk, dS)
	return dS
}
