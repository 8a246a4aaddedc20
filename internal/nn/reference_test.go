package nn

import (
	"fmt"

	"repro/internal/sample"
	"repro/internal/tensor"
)

// The model runs every layer as its two halves (forwardFeats /
// backwardFeats). The reference below is the composition the halves
// replaced on hidden layers, kept as an independent check of them: each
// layer on a materialized input matrix h, with
//
//   - SAGE: the projection MatMul(h, W), then SegmentAggFused (the mean
//     and the ReLU fused into the aggregation pass); backward
//     SegmentAggFusedBackward, TMatMulAcc into W's gradient and the
//     input gradient MatMulT;
//   - GAT: one MatMul over the packed weight of every head, then
//     Finish; backward FinishBackward, TMatMulAcc into the packed
//     gradient and one MatMulTSlice per head for the input gradient.

// refState is the reference forward's state: each layer's input and
// context, and the logits.
type refState struct {
	inputs []*tensor.Matrix
	ctxs   []LayerCtx
	logits *tensor.Matrix
}

// refForward runs m on mb from x, the gathered layer-0 input (rows
// aligned with mb.Blocks[0].Src).
func refForward(m *Model, mb *sample.MiniBatch, x *tensor.Matrix) *refState {
	m.checkBlocks(mb)
	st := &refState{inputs: make([]*tensor.Matrix, len(m.Layers)), ctxs: make([]LayerCtx, len(m.Layers))}
	h := x
	for l, layer := range m.Layers {
		blk := mb.Blocks[l]
		if h.Rows != blk.NumSrc() {
			panic(fmt.Sprintf("reference: layer %d got %d src rows, block has %d", l, h.Rows, blk.NumSrc()))
		}
		st.inputs[l] = h
		switch ly := layer.(type) {
		case *SAGELayer:
			z := tensor.MatMul(h, ly.W.W)
			h = tensor.SegmentAggFused(blk.EdgePtr, blk.SrcIdx, z, ly.Agg == AggMean, ly.Act == ActReLU)
			tensor.Put(z)
			st.ctxs[l] = h
		case *GATLayer:
			w := ly.packed(false, 0, ly.InDim())
			z := tensor.MatMul(h, w)
			ly.unpack(w, false, 0, ly.InDim())
			h, st.ctxs[l] = ly.Finish(blk, z)
		default:
			panic(fmt.Sprintf("reference: no composition for %T", layer))
		}
	}
	st.logits = h
	return st
}

// refBackward accumulates every parameter gradient of the state's
// forward from dLogits, which it leaves unchanged.
func refBackward(m *Model, mb *sample.MiniBatch, st *refState, dLogits *tensor.Matrix) {
	d := dLogits
	for l := len(m.Layers) - 1; l >= 0; l-- {
		blk, h := mb.Blocks[l], st.inputs[l]
		var dZ, dH *tensor.Matrix
		switch ly := m.Layers[l].(type) {
		case *SAGELayer:
			dZ = tensor.SegmentAggFusedBackward(blk.EdgePtr, blk.SrcIdx, st.ctxs[l].(*tensor.Matrix), d,
				ly.Agg == AggMean, ly.Act == ActReLU, blk.NumSrc())
			tensor.TMatMulAcc(ly.W.G, h, dZ)
			dH = tensor.MatMulT(dZ, ly.W.W)
		case *GATLayer:
			dZ = ly.FinishBackward(blk, st.ctxs[l], d)
			g := ly.packed(true, 0, ly.InDim())
			tensor.TMatMulAcc(g, h, dZ)
			ly.unpack(g, true, 0, ly.InDim())
			for k := 0; k < ly.Heads; k++ {
				lo, hi := ly.band(k)
				dHk := tensor.MatMulTSlice(dZ, lo, hi, ly.Ws[k].W)
				if dH == nil {
					dH = dHk
					continue
				}
				dH.AddInPlace(dHk)
			}
		}
		if d != dLogits {
			tensor.Put(d)
		}
		d = dH
	}
}
