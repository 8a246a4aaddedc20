package nn

import (
	"fmt"

	"repro/internal/sample"
	"repro/internal/tensor"
)

// Inference-only execution. Training forward passes retain a LayerCtx
// per layer (inputs, attention scores, pre-activation sums) so the
// backward pass can consume them; a serving path that never calls
// Backward would leak every one of those pooled buffers to the garbage
// collector. Model.Predict runs the same kernels but recycles each
// intermediate as soon as the next layer has consumed it, so steady-
// state inference allocates nothing beyond what the kernels' pools
// already hold.

// InferenceLayer is implemented by layers that provide a forward pass
// keeping no backward intermediates: every scratch buffer is returned
// to the tensor pool before Infer returns, except the output itself.
type InferenceLayer interface {
	// Infer computes dst embeddings from src embeddings h exactly like
	// Forward, but retains no LayerCtx. The returned matrix is
	// pool-backed and owned by the caller.
	Infer(blk *sample.Block, h *tensor.Matrix) *tensor.Matrix
}

// inferFused is the shared SAGE inference body over a plain or
// gather-fused input.
func (l *SAGELayer) inferFused(blk *sample.Block, h *tensor.Matrix, src tensor.FeatSource, idx []int32) *tensor.Matrix {
	z := l.project(h, src, idx)
	s := tensor.SegmentAggFused(blk.EdgePtr, blk.SrcIdx, z, l.Agg == AggMean, l.Act == ActReLU)
	tensor.Put(z)
	return s
}

// Infer implements InferenceLayer for GraphSAGE: projection + fused
// aggregate/activate with the projection recycled immediately.
func (l *SAGELayer) Infer(blk *sample.Block, h *tensor.Matrix) *tensor.Matrix {
	if h.Rows != blk.NumSrc() {
		panic(fmt.Sprintf("nn: SAGE infer got %d src rows, block has %d", h.Rows, blk.NumSrc()))
	}
	return l.inferFused(blk, h, tensor.FeatSource{}, nil)
}

// InferGathered implements GatherLayer.
func (l *SAGELayer) InferGathered(blk *sample.Block, feats tensor.FeatSource, idx []int32) *tensor.Matrix {
	if len(idx) != blk.NumSrc() {
		panic(fmt.Sprintf("nn: SAGE infer got %d src indices, block has %d", len(idx), blk.NumSrc()))
	}
	if idx == nil {
		idx = []int32{} // empty block: stay on the gather-fused path
	}
	return l.inferFused(blk, nil, feats, idx)
}

// inferFused is the shared GAT inference body over a plain or
// gather-fused input.
func (l *GATLayer) inferFused(blk *sample.Block, h *tensor.Matrix, src tensor.FeatSource, idx []int32) *tensor.Matrix {
	concat := tensor.Get(blk.NumDst(), l.OutDim())
	for k := 0; k < l.Heads; k++ {
		z := l.projectHead(k, h, src, idx)
		o, _ := l.headAttention(k, blk, z)
		tensor.Put(z)
		setHead(concat, k, o)
		tensor.Put(o)
	}
	if l.Act == ActReLU {
		tensor.ReLUInPlace(concat)
	}
	return concat
}

// Infer implements InferenceLayer for GAT: per-head projection and
// attention with every head's projection recycled after its weighted
// sum, instead of being parked in the backward context.
func (l *GATLayer) Infer(blk *sample.Block, h *tensor.Matrix) *tensor.Matrix {
	if h.Rows != blk.NumSrc() {
		panic(fmt.Sprintf("nn: GAT infer got %d src rows, block has %d", h.Rows, blk.NumSrc()))
	}
	return l.inferFused(blk, h, tensor.FeatSource{}, nil)
}

// InferGathered implements GatherLayer.
func (l *GATLayer) InferGathered(blk *sample.Block, feats tensor.FeatSource, idx []int32) *tensor.Matrix {
	if len(idx) != blk.NumSrc() {
		panic(fmt.Sprintf("nn: GAT infer got %d src indices, block has %d", len(idx), blk.NumSrc()))
	}
	if idx == nil {
		idx = []int32{} // empty block: stay on the gather-fused path
	}
	return l.inferFused(blk, nil, feats, idx)
}

// Predict runs the inference-only forward pass on mini-batch mb with
// gathered input features x (rows aligned with mb.Blocks[0].Src). It
// computes exactly what Forward's Logits would hold — bit-identical,
// since the same kernels run in the same order — but retains no
// backward intermediates: every hidden layer's output is recycled once
// the next layer has consumed it. The caller keeps ownership of x and
// receives ownership of the returned logits (pool-backed; tensor.Put
// it when done). Predict only reads model parameters, so one Model may
// serve concurrent Predict calls from multiple goroutines.
func (m *Model) Predict(mb *sample.MiniBatch, x *tensor.Matrix) *tensor.Matrix {
	if len(mb.Blocks) != len(m.Layers) {
		panic(fmt.Sprintf("nn: %d blocks for %d layers", len(mb.Blocks), len(m.Layers)))
	}
	h := x
	for l, layer := range m.Layers {
		var out *tensor.Matrix
		if il, ok := layer.(InferenceLayer); ok {
			out = il.Infer(mb.Blocks[l], h)
		} else {
			out, _ = layer.Forward(mb.Blocks[l], h)
		}
		if h != x { // recycle the previous hidden layer's output
			tensor.Put(h)
		}
		h = out
	}
	return h
}

// PredictGathered is Predict with the input gather fused into layer 0:
// it reads feature rows through idx directly instead of consuming a
// materialized x, and is bit-identical to
// Predict(mb, Gather(feats, idx)). Layer 0 must be a GatherLayer.
// Ownership mirrors Predict: feats stays with the caller, the logits
// transfer to it.
func (m *Model) PredictGathered(mb *sample.MiniBatch, feats tensor.FeatSource, idx []int32) *tensor.Matrix {
	if len(mb.Blocks) != len(m.Layers) {
		panic(fmt.Sprintf("nn: %d blocks for %d layers", len(mb.Blocks), len(m.Layers)))
	}
	h := m.Layers[0].(GatherLayer).InferGathered(mb.Blocks[0], feats, idx)
	for l := 1; l < len(m.Layers); l++ {
		var out *tensor.Matrix
		if il, ok := m.Layers[l].(InferenceLayer); ok {
			out = il.Infer(mb.Blocks[l], h)
		} else {
			out, _ = m.Layers[l].Forward(mb.Blocks[l], h)
		}
		tensor.Put(h)
		h = out
	}
	return h
}
