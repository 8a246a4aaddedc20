package nn

import (
	"fmt"

	"repro/internal/sample"
	"repro/internal/tensor"
)

// Layer is one GNN layer: it computes destination embeddings from
// source embeddings over a bipartite block. Forward returns the output
// and an opaque context consumed by Backward; Backward accumulates
// parameter gradients and returns the gradient w.r.t. the layer input.
//
// A layer is also its two halves as separate calls (paper §3.1,
// Fig. 5), which is how it runs as layer 0 over the feature store:
// the dense half projects source features, Z = X[idx][:, lo:hi] ·
// W[lo:hi]; the sparse half turns projections into destination
// embeddings. A parallelization strategy decides where each half runs
// and what is exchanged between them, so implementing this interface
// is all it takes for a new model to train under every strategy.
type Layer interface {
	// InDim and OutDim are the source and destination embedding widths.
	InDim() int
	OutDim() int
	// Params lists the layer's trainable parameters.
	Params() []*Param
	// Forward computes dst embeddings from src embeddings h
	// (shape [block.NumSrc(), InDim()]).
	Forward(blk *sample.Block, h *tensor.Matrix) (*tensor.Matrix, LayerCtx)
	// Backward propagates dOut (shape [NumDst, OutDim]) to dIn
	// (shape [NumSrc, InDim]), accumulating parameter gradients.
	Backward(blk *sample.Block, ctx LayerCtx, dOut *tensor.Matrix) *tensor.Matrix
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
	// ProjectCols computes Z for the feature rows idx, multiplying
	// feature columns [lo, hi) by the matching rows of the weights; the
	// full range gives the complete projection, a sub-range a partial
	// one whose sum over a partition of the columns is the complete one.
	// Rows are served fp32 or — when the store's warm tier holds them —
	// dequantized from int8. The result is owned by the caller and may
	// be shipped to a peer.
	ProjectCols(feats tensor.FeatSource, idx []int32, lo, hi int) *tensor.Matrix
	// ProjectColsBackward accumulates the weight gradient of rows
	// [lo, hi) from dZ, the gradient of what ProjectCols returned for
	// the same arguments. Raw features are not trained, so no input
	// gradient exists.
	ProjectColsBackward(feats tensor.FeatSource, idx []int32, lo, hi int, dZ *tensor.Matrix)
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

// featsCtx is layer 0's context when it read the feature store: the
// rows it projected and its sparse half's context.
type featsCtx struct {
	feats tensor.FeatSource
	idx   []int32
	fin   LayerCtx
}

// forwardFeats runs l as layer 0 over the feature rows (feats, idx),
// as its two halves: ProjectCols, SegmentSum when the layer pre-sums,
// then Finish. Logical input row r is feats row idx[r]; a FeatSource
// with no quantized tier makes this bit-identical to Forward on the
// gathered copy.
func forwardFeats(l Layer, blk *sample.Block, feats tensor.FeatSource, idx []int32) (*tensor.Matrix, *featsCtx) {
	if len(idx) != blk.NumSrc() {
		panic(fmt.Sprintf("nn: layer 0 got %d src indices, block has %d", len(idx), blk.NumSrc()))
	}
	x := l.ProjectCols(feats, idx, 0, l.InDim())
	if l.PreSums() {
		s := tensor.SegmentSum(blk.EdgePtr, blk.SrcIdx, x)
		tensor.Put(x)
		x = s
	}
	out, fin := l.Finish(blk, x)
	return out, &featsCtx{feats: feats, idx: idx, fin: fin}
}

// backwardFeats is forwardFeats' backward: FinishBackward, then
// SegmentSumBackward when the layer pre-sums, then
// ProjectColsBackward. It accumulates parameter gradients only — raw
// features are not trained — and may overwrite dOut.
func backwardFeats(l Layer, blk *sample.Block, c *featsCtx, dOut *tensor.Matrix) {
	dS := l.FinishBackward(blk, c.fin, dOut)
	if l.PreSums() {
		dZ := tensor.SegmentSumBackward(blk.EdgePtr, blk.SrcIdx, dS, blk.NumSrc())
		l.ProjectColsBackward(c.feats, c.idx, 0, l.InDim(), dZ)
		tensor.Put(dZ)
	} else {
		l.ProjectColsBackward(c.feats, c.idx, 0, l.InDim(), dS)
	}
	if dS != dOut {
		tensor.Put(dS)
	}
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
