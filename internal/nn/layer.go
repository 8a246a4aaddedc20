package nn

import (
	"fmt"

	"repro/internal/sample"
	"repro/internal/tensor"
)

// Layer is one GNN layer: it computes destination embeddings from
// source embeddings over a bipartite block, as its two halves (paper
// §3.1, Fig. 5). The dense half projects input rows, Z = X[idx][:,
// lo:hi] · W[lo:hi], where X is the feature store at layer 0 and the
// layer below's output above it; the sparse half turns projections into
// destination embeddings. Every layer runs as these calls, in the model
// and in the engine alike: a parallelization strategy decides where
// each half runs and what is exchanged between them, so implementing
// this interface is all it takes for a new model to train under every
// strategy.
type Layer interface {
	// InDim and OutDim are the source and destination embedding widths.
	InDim() int
	OutDim() int
	// Params lists the layer's trainable parameters.
	Params() []*Param
	// NeedsDstInSrc reports whether the layer requires every
	// destination to appear in its block's source list (attention).
	NeedsDstInSrc() bool
	// FLOPs returns the forward cost of a block with nSrc sources and
	// nEdges edges when cols input columns are multiplied (InDim for the
	// whole layer, fewer under a column shard): the dense projection and
	// the memory-bound sparse half, the two rates the simulated devices
	// charge.
	FLOPs(nSrc, cols, nEdges int64) (dense, sparse float64)

	// ProjWidth is the column count of the projection Z.
	ProjWidth() int
	// ProjectCols computes Z for the input rows idx, multiplying
	// columns [lo, hi) by the matching rows of the weights; the full
	// range gives the complete projection, a sub-range a partial one
	// whose sum over a partition of the columns is the complete one.
	// Rows are served fp32 or — when the store's warm tier holds them —
	// dequantized from int8. The result is owned by the caller and may
	// be shipped to a peer.
	ProjectCols(feats tensor.FeatSource, idx []int32, lo, hi int) *tensor.Matrix
	// ProjectColsBackward accumulates the weight gradient of rows
	// [lo, hi) from dZ, the gradient of what ProjectCols returned for
	// the same arguments.
	ProjectColsBackward(feats tensor.FeatSource, idx []int32, lo, hi int, dZ *tensor.Matrix)
	// InputGrad returns the gradient w.r.t. the input rows of the whole
	// projection, dZ · Wᵀ (shape [dZ.Rows, InDim]). Only a hidden input
	// has one: raw features are not trained.
	InputGrad(dZ *tensor.Matrix) *tensor.Matrix
	// PreSums reports whether the aggregate is a plain per-destination
	// sum of Z rows. A rank holding only some of a destination's sources
	// may then reduce them to one row (tensor.SegmentSum) before
	// shipping, and Finish receives those sums, one row per destination.
	// Otherwise (attention, paper §3.3) Finish needs Z itself, one row
	// per block source.
	PreSums() bool
	// Finish is the sparse half on the assembled matrix x: the summed Z
	// rows per destination when PreSums, the complete Z otherwise. It
	// takes ownership of x and may return it as the output.
	Finish(blk *sample.Block, x *tensor.Matrix) (*tensor.Matrix, LayerCtx)
	// FinishBackward returns the gradient w.r.t. Finish's x, accumulating
	// the gradients of any parameters the sparse half owns. It may
	// overwrite dOut, and may return it.
	FinishBackward(blk *sample.Block, ctx LayerCtx, dOut *tensor.Matrix) *tensor.Matrix
}

// LayerCtx carries forward-pass intermediates to the backward pass.
type LayerCtx interface{}

// featsCtx is one layer's forward context: the input rows its dense
// half read (the feature store at layer 0, the layer below's output
// above it) and its sparse half's context.
type featsCtx struct {
	feats tensor.FeatSource
	idx   []int32
	fin   LayerCtx
}

// forwardFeats runs l over the input rows (feats, idx) as its two
// halves: ProjectCols, SegmentSum when the layer pre-sums, then Finish.
// Logical input row r is feats row idx[r].
func forwardFeats(l Layer, blk *sample.Block, feats tensor.FeatSource, idx []int32) (*tensor.Matrix, LayerCtx) {
	if len(idx) != blk.NumSrc() {
		panic(fmt.Sprintf("nn: layer got %d src indices, block has %d", len(idx), blk.NumSrc()))
	}
	x := l.ProjectCols(feats, idx, 0, l.InDim())
	if l.PreSums() {
		s := tensor.SegmentSum(blk.EdgePtr, blk.SrcIdx, x)
		tensor.Put(x)
		x = s
	}
	return l.Finish(blk, x)
}

// backwardFeats is forwardFeats' backward: FinishBackward, then
// SegmentSumBackward when the layer pre-sums, then ProjectColsBackward,
// and — when in is set — InputGrad, whose result it returns (nil
// otherwise). It may overwrite dOut.
func backwardFeats(l Layer, blk *sample.Block, c *featsCtx, dOut *tensor.Matrix, in bool) *tensor.Matrix {
	dZ := l.FinishBackward(blk, c.fin, dOut)
	dS := dZ
	if l.PreSums() {
		dZ = tensor.SegmentSumBackward(blk.EdgePtr, blk.SrcIdx, dS, blk.NumSrc())
	}
	l.ProjectColsBackward(c.feats, c.idx, 0, l.InDim(), dZ)
	var dIn *tensor.Matrix
	if in {
		dIn = l.InputGrad(dZ)
	}
	if dZ != dS {
		tensor.Put(dZ)
	}
	if dS != dOut {
		tensor.Put(dS)
	}
	return dIn
}

// rowShard returns rows [lo, hi) of a parameter matrix as a view (rows
// are input dimensions, stored contiguously).
func rowShard(m *tensor.Matrix, lo, hi int) *tensor.Matrix {
	if lo == 0 && hi == m.Rows {
		return m
	}
	return tensor.FromData(hi-lo, m.Cols, m.Data[lo*m.Cols:hi*m.Cols])
}

// Activation selects the nonlinearity applied to a layer's output.
type Activation int

// Supported activations.
const (
	// ActNone leaves the output linear (final classification layers).
	ActNone Activation = iota
	// ActReLU applies max(0, x).
	ActReLU
)

func activationBackward(act Activation, out, dOut *tensor.Matrix) *tensor.Matrix {
	switch act {
	case ActReLU:
		return tensor.ReLUBackward(out, dOut)
	default:
		return dOut
	}
}
