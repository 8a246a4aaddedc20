package nn

import (
	"repro/internal/sample"
	"repro/internal/tensor"
)

// Serving runs the training forward. A forward pass retains a LayerCtx
// per layer (attention scores, the packed projection) for the backward
// pass to consume; a serving path that never calls Backward hands each
// context back as soon as its layer returns and recycles every hidden
// output once the next layer has consumed it, so steady-state inference
// keeps no backward intermediates alive.

// PredictGathered runs the forward pass on mini-batch mb for
// inference, layer 0 reading the feature rows (feats, idx) directly. It
// computes exactly what ForwardGathered's Logits would hold —
// bit-identical, since it is the same forward — but retains no backward
// intermediates. feats stays with the caller; the caller receives
// ownership of the returned logits (pool-backed; tensor.Put it when
// done). It only reads model parameters, so one Model may serve
// concurrent calls from multiple goroutines.
func (m *Model) PredictGathered(mb *sample.MiniBatch, feats tensor.FeatSource, idx []int32) *tensor.Matrix {
	return m.predict(mb, nil, feats, idx)
}

// PredictProjected is PredictGathered with layer 0's projection
// already done: x is what layer 0's Finish consumes (see Layer) — per
// destination, the sum of its sources' projected rows when the layer
// PreSums, otherwise the projected row of every block source. Built
// from rows that hold exactly what ProjectCols computes, it is
// bit-identical to PredictGathered on the same feature view. It takes
// ownership of x; the logits transfer to the caller.
func (m *Model) PredictProjected(mb *sample.MiniBatch, x *tensor.Matrix) *tensor.Matrix {
	return m.predict(mb, x, tensor.FeatSource{}, nil)
}

// predict is the inference loop behind both: every layer runs as its
// two halves (forwardFeats), except that layer 0 runs only Finish, on
// x, when x is set.
func (m *Model) predict(mb *sample.MiniBatch, x *tensor.Matrix, feats tensor.FeatSource, idx []int32) *tensor.Matrix {
	m.checkBlocks(mb)
	var h *tensor.Matrix
	for l, layer := range m.Layers {
		var out *tensor.Matrix
		var ctx LayerCtx
		switch {
		case l == 0 && x != nil:
			out, ctx = layer.Finish(mb.Blocks[0], x)
		case l == 0:
			out, ctx = forwardFeats(layer, mb.Blocks[0], feats, idx)
		default:
			out, ctx = forwardFeats(layer, mb.Blocks[l], tensor.FS(h), tensor.Iota(h.Rows))
			tensor.Put(h) // the layer below's output; x is Finish's
		}
		releaseCtx(ctx)
		h = out
	}
	return h
}

// releaseCtx returns the pooled buffers a sparse-half context owns for
// a backward pass that will never run. Only GAT's does: the packed
// all-heads projection and the attention logits and weights its
// FinishBackward would Put. Every other context is the layer's output,
// which the caller owns.
func releaseCtx(ctx LayerCtx) {
	if c, ok := ctx.(*gatAttnCtx); ok {
		c.release()
	}
}
