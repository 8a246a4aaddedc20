package nn

import (
	"repro/internal/sample"
	"repro/internal/tensor"
)

// Serving runs the training forward. A forward pass retains a LayerCtx
// per layer (inputs, attention scores, the packed projection) for the
// backward pass to consume; a serving path that never calls Backward
// hands each context back as soon as its layer returns and recycles
// every hidden output once the next layer has consumed it, so
// steady-state inference keeps no backward intermediates alive.

// Predict runs the forward pass on mini-batch mb with gathered input
// features x (rows aligned with mb.Blocks[0].Src) for inference. It
// computes exactly what Forward's Logits would hold — bit-identical,
// since it is the same forward — but retains no backward intermediates.
// The caller keeps ownership of x and receives ownership of the
// returned logits (pool-backed; tensor.Put it when done). Predict only
// reads model parameters, so one Model may serve concurrent Predict
// calls from multiple goroutines.
func (m *Model) Predict(mb *sample.MiniBatch, x *tensor.Matrix) *tensor.Matrix {
	return m.predict(mb, x, tensor.FeatSource{}, nil)
}

// PredictGathered is Predict with the input gather fused into layer 0:
// it reads feature rows through idx directly instead of consuming a
// materialized x, and is bit-identical to
// Predict(mb, Gather(feats, idx)). Layer 0 must be a GatherLayer.
// Ownership mirrors Predict: feats stays with the caller, the logits
// transfer to it.
func (m *Model) PredictGathered(mb *sample.MiniBatch, feats tensor.FeatSource, idx []int32) *tensor.Matrix {
	return m.predict(mb, nil, feats, idx)
}

// predict is the inference loop behind both: layer 0 reads x, or —
// when x is nil — the feature rows (feats, idx) gather-fused.
func (m *Model) predict(mb *sample.MiniBatch, x *tensor.Matrix, feats tensor.FeatSource, idx []int32) *tensor.Matrix {
	m.checkBlocks(mb)
	h := x
	for l, layer := range m.Layers {
		var out *tensor.Matrix
		var ctx LayerCtx
		if l == 0 && x == nil {
			out, ctx = layer.(GatherLayer).ForwardGathered(mb.Blocks[0], feats, idx)
		} else {
			out, ctx = layer.Forward(mb.Blocks[l], h)
		}
		releaseCtx(ctx)
		if l > 0 { // recycle the previous hidden output; x stays the caller's
			tensor.Put(h)
		}
		h = out
	}
	return h
}

// releaseCtx returns the pooled buffers a layer context owns for a
// backward pass that will never run. Only GAT's context owns any: the
// packed all-heads projection its Backward would Put. Every other
// context holds only the layer's input and output, which the caller
// owns.
func releaseCtx(ctx LayerCtx) {
	if c, ok := ctx.(*gatCtx); ok {
		tensor.Put(c.attn.z)
	}
}
