package nn

import (
	"repro/internal/sample"
	"repro/internal/tensor"
)

// Layer is one GNN layer: it computes destination embeddings from
// source embeddings over a bipartite block. Forward returns the output
// and an opaque context consumed by Backward; Backward accumulates
// parameter gradients and returns the gradient w.r.t. the layer input.
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
}

// LayerCtx carries forward-pass intermediates to the backward pass.
type LayerCtx interface{}

// GatherLayer is implemented by layers whose layer-0 execution can read
// input features directly through an index vector (the gather-fused
// kernels), skipping the materialized tensor.Gather copy, and whose
// backward can skip the input gradient entirely (raw features are never
// trained, so dIn at layer 0 is always discarded).
type GatherLayer interface {
	Layer
	// ForwardGathered is Forward with h replaced by (feats, idx):
	// logical input row r is feats row idx[r], served fp32 or — when
	// the store's warm tier holds it — dequantized from int8. idx must
	// have blk.NumSrc() entries. A FeatSource with no quantized tier
	// makes this bit-identical to Forward on the gathered copy.
	ForwardGathered(blk *sample.Block, feats tensor.FeatSource, idx []int32) (*tensor.Matrix, LayerCtx)
	// BackwardParams is Backward minus the dIn computation: it only
	// accumulates parameter gradients. Legal exactly when the input
	// gradient would be discarded.
	BackwardParams(blk *sample.Block, ctx LayerCtx, dOut *tensor.Matrix)
}

// SplitLayer is what the engine needs of a model's first layer to run
// it under any parallelization strategy: the layer's two halves as
// separate calls, so that the strategy decides where each half runs and
// what is exchanged between them (paper §3.1, Fig. 5). The dense half
// projects source features, Z = X[idx][:, lo:hi] · W[lo:hi]; the sparse
// half turns projections into destination embeddings. Implementing
// this interface is all it takes for a new model to train under every
// strategy.
type SplitLayer interface {
	GatherLayer
	// ProjWidth is the column count of the projection Z.
	ProjWidth() int
	// ProjectCols computes Z for the feature rows idx, multiplying
	// feature columns [lo, hi) by the matching rows of the weights; the
	// full range gives the complete projection, a sub-range a partial
	// one whose sum over a partition of the columns is the complete one.
	// The result is owned by the caller and may be shipped to a peer.
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
	// overwrite dOut.
	FinishBackward(blk *sample.Block, ctx LayerCtx, dOut *tensor.Matrix) *tensor.Matrix
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
