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
	return m.predict(mb, x, tensor.FeatSource{}, nil, false)
}

// PredictGathered is Predict with the input gather fused into layer 0:
// it reads feature rows through idx directly instead of consuming a
// materialized x, and is bit-identical to
// Predict(mb, Gather(feats, idx)). Layer 0 must be a GatherLayer.
// Ownership mirrors Predict: feats stays with the caller, the logits
// transfer to it.
func (m *Model) PredictGathered(mb *sample.MiniBatch, feats tensor.FeatSource, idx []int32) *tensor.Matrix {
	return m.predict(mb, nil, feats, idx, false)
}

// PredictProjected is Predict with layer 0's projection already done:
// x is what layer 0's Finish consumes (see SplitLayer) — per
// destination, the sum of its sources' projected rows when the layer
// PreSums, otherwise the projected row of every block source. Built
// from rows that hold exactly what ProjectCols computes, it is
// bit-identical to PredictGathered on the same feature view. Layer 0
// must be a SplitLayer. It takes ownership of x; the logits transfer to
// the caller.
func (m *Model) PredictProjected(mb *sample.MiniBatch, x *tensor.Matrix) *tensor.Matrix {
	return m.predict(mb, x, tensor.FeatSource{}, nil, true)
}

// predict is the inference loop behind all three: layer 0 runs Finish
// on x when projected is set, reads x when it is not, or — when x is
// nil — reads the feature rows (feats, idx) gather-fused.
func (m *Model) predict(mb *sample.MiniBatch, x *tensor.Matrix, feats tensor.FeatSource, idx []int32, projected bool) *tensor.Matrix {
	m.checkBlocks(mb)
	h := x
	for l, layer := range m.Layers {
		var out *tensor.Matrix
		var ctx LayerCtx
		switch {
		case l > 0:
			out, ctx = layer.Forward(mb.Blocks[l], h)
		case projected:
			out, ctx = layer.(SplitLayer).Finish(mb.Blocks[0], x)
		case x == nil:
			out, ctx = layer.(GatherLayer).ForwardGathered(mb.Blocks[0], feats, idx)
		default:
			out, ctx = layer.Forward(mb.Blocks[0], x)
		}
		releaseCtx(ctx)
		if l > 0 { // recycle the previous hidden output; x is the caller's or Finish's
			tensor.Put(h)
		}
		h = out
	}
	return h
}

// releaseCtx returns the pooled buffers a layer context owns for a
// backward pass that will never run. Only GAT's contexts own any: the
// packed all-heads projection and the attention logits and weights its
// Backward (or, after Finish alone, FinishBackward) would Put. Every
// other context holds only the layer's input and output, which the
// caller owns.
func releaseCtx(ctx LayerCtx) {
	switch c := ctx.(type) {
	case *gatCtx:
		c.attn.release()
	case *gatAttnCtx:
		c.release()
	}
}
