package nn

import (
	"fmt"

	"repro/internal/sample"
	"repro/internal/tensor"
)

// GATLayer implements multi-head additive attention (Velickovic et al.):
//
//	e_uv   = LeakyReLU_0.2( aL · (W h_v) + aR · (W h_u) )
//	α_uv   = softmax_{u in N(v)}(e_uv)
//	h_v^k  = act( ||_heads Σ_u α_uv (W_k h_u) )
//
// Head outputs are concatenated. Attention requires each destination to
// see all of its sources (the paper's §3.3 point about SNP/NFP paying
// extra communication for attention models), which is why
// NeedsDstInSrc is true: the destination's own projection feeds aL.
//
// The layer computes on the packed layout: one [rows, heads·dh] matrix
// with head k in column band [k·dh, (k+1)·dh). All heads are projected
// by one GEMM and their weight gradients accumulated by one pass, and
// the attention runs every head in one kernel call each way
// (tensor.SegmentAttention and its backward). Per output element every
// kernel adds in the order the per-head products did, so the packed
// layer is bit-identical to running the heads one at a time.
type GATLayer struct {
	// Ws[k] projects inputs for head k; ALs[k]/ARs[k] are the
	// destination/source halves of head k's attention vector, stored as
	// [outPerHead x 1] matrices.
	Ws    []*Param
	ALs   []*Param
	ARs   []*Param
	Heads int
	Act   Activation
	// a packs the attention vectors as the attention kernels take them,
	// [2, heads·dh]: row 0 every head's aL, row 1 every head's aR, head
	// k in band k. ALs[k].W and ARs[k].W are views of its bands, and
	// their gradients views of aG's.
	a, aG *tensor.Matrix
}

// NewGATLayer creates a GAT layer with the given head count; the output
// dimension is heads*outPerHead (concatenation).
func NewGATLayer(name string, in, outPerHead, heads int, act Activation) *GATLayer {
	l := &GATLayer{Heads: heads, Act: act, a: tensor.New(2, heads*outPerHead), aG: tensor.New(2, heads*outPerHead)}
	band := func(m *tensor.Matrix, row, k int) *tensor.Matrix {
		return tensor.FromData(outPerHead, 1, m.Row(row)[k*outPerHead:(k+1)*outPerHead])
	}
	for k := 0; k < heads; k++ {
		l.Ws = append(l.Ws, NewParam(fmt.Sprintf("%s.W%d", name, k), in, outPerHead))
		l.ALs = append(l.ALs, &Param{Name: fmt.Sprintf("%s.aL%d", name, k), W: band(l.a, 0, k), G: band(l.aG, 0, k)})
		l.ARs = append(l.ARs, &Param{Name: fmt.Sprintf("%s.aR%d", name, k), W: band(l.a, 1, k), G: band(l.aG, 1, k)})
	}
	return l
}

// InDim implements Layer.
func (l *GATLayer) InDim() int { return l.Ws[0].W.Rows }

// OutDim implements Layer (concatenated width).
func (l *GATLayer) OutDim() int { return l.Heads * l.Ws[0].W.Cols }

// OutPerHead is the width of one head.
func (l *GATLayer) OutPerHead() int { return l.Ws[0].W.Cols }

// Params implements Layer.
func (l *GATLayer) Params() []*Param {
	ps := make([]*Param, 0, 3*l.Heads)
	for k := 0; k < l.Heads; k++ {
		ps = append(ps, l.Ws[k], l.ALs[k], l.ARs[k])
	}
	return ps
}

// NeedsDstInSrc implements Layer.
func (l *GATLayer) NeedsDstInSrc() bool { return true }

// gatAttnCtx carries the attention intermediates from Finish to
// FinishBackward: the packed projection z of every block source and the
// edge-major [E, heads] logits and weights, which it owns, and the
// output, which the caller owns.
type gatAttnCtx struct {
	z, scores, alpha, out *tensor.Matrix
}

// release returns the matrices the context owns to the pool.
func (c *gatAttnCtx) release() {
	tensor.Put(c.z)
	tensor.Put(c.scores)
	tensor.Put(c.alpha)
}

// band is head k's column range in the packed layout.
func (l *GATLayer) band(k int) (lo, hi int) {
	dh := l.OutPerHead()
	return k * dh, (k + 1) * dh
}

// packed returns rows [lo, hi) of every head's weight (or, with grad
// set, gradient) side by side: a [hi-lo, heads·dh] matrix, pooled, that
// the caller hands back to unpack. One head's matrix is used directly.
func (l *GATLayer) packed(grad bool, lo, hi int) *tensor.Matrix {
	if l.Heads == 1 {
		return rowShard(weightOrGrad(l.Ws[0], grad), lo, hi)
	}
	p := tensor.Get(hi-lo, l.OutDim())
	for k, w := range l.Ws {
		b0, b1 := l.band(k)
		m := weightOrGrad(w, grad)
		for r := lo; r < hi; r++ {
			copy(p.Row(r - lo)[b0:b1], m.Row(r))
		}
	}
	return p
}

// unpack releases a matrix from packed, first copying each head's band
// back into its gradient when grad is set.
func (l *GATLayer) unpack(p *tensor.Matrix, grad bool, lo, hi int) {
	if l.Heads == 1 {
		return
	}
	if grad {
		for k, w := range l.Ws {
			b0, b1 := l.band(k)
			for r := lo; r < hi; r++ {
				copy(w.G.Row(r), p.Row(r - lo)[b0:b1])
			}
		}
	}
	tensor.Put(p)
}

func weightOrGrad(p *Param, grad bool) *tensor.Matrix {
	if grad {
		return p.G
	}
	return p.W
}

// ProjWidth implements Layer: all heads, packed side by side.
func (l *GATLayer) ProjWidth() int { return l.OutDim() }

// PreSums implements Layer: attention weights depend on every
// source's full projection, so nothing can be reduced before shipping.
func (l *GATLayer) PreSums() bool { return false }

// ProjectCols implements Layer: every head's projection in one
// GEMM over the packed weight; the kernel reads the feature store
// through idx, dequantizing warm-tier rows once for all heads.
func (l *GATLayer) ProjectCols(feats tensor.FeatSource, idx []int32, lo, hi int) *tensor.Matrix {
	w := l.packed(false, lo, hi)
	z := tensor.GatherMatMulSliceSrc(feats, idx, lo, hi, w)
	l.unpack(w, false, lo, hi)
	return z
}

// ProjectColsBackward implements Layer: one accumulate into the
// packed gradient, which is exactly each head's accumulate into its own
// — also when a rank calls it several times per step into the same G.
func (l *GATLayer) ProjectColsBackward(feats tensor.FeatSource, idx []int32, lo, hi int, dZ *tensor.Matrix) {
	g := l.packed(true, lo, hi)
	tensor.GatherTMatMulAccSliceSrc(g, feats, idx, lo, hi, dZ)
	l.unpack(g, true, lo, hi)
}

// FLOPs implements Layer. Per head: projection, then attention scores
// plus weighted sum over the edges.
func (l *GATLayer) FLOPs(nSrc, cols, nEdges int64) (dense, sparse float64) {
	out := float64(l.OutDim())
	return 2 * float64(nSrc) * float64(cols) * out, 6 * float64(nEdges) * out
}

// Finish implements Layer: z holds every block source's packed
// projection (rows [:NumDst] are the destinations' own); the attention
// of every head writes its band of the concatenated, activated output.
// The context keeps z.
func (l *GATLayer) Finish(blk *sample.Block, z *tensor.Matrix) (*tensor.Matrix, LayerCtx) {
	out, scores, alpha := tensor.SegmentAttention(blk.EdgePtr, blk.SrcIdx, z, l.a, l.Heads, l.Act == ActReLU)
	return out, &gatAttnCtx{z: z, scores: scores, alpha: alpha, out: out}
}

// FinishBackward implements Layer: the packed gradient of z,
// adding the attention vectors' gradients onto theirs. It releases the
// context.
func (l *GATLayer) FinishBackward(blk *sample.Block, ctx LayerCtx, dOut *tensor.Matrix) *tensor.Matrix {
	c := ctx.(*gatAttnCtx)
	dZ, dA := tensor.SegmentAttentionBackward(blk.EdgePtr, blk.SrcIdx, c.z, l.a, c.scores, c.alpha, c.out, dOut, l.Act == ActReLU)
	l.aG.AddInPlace(dA)
	tensor.Put(dA)
	c.release()
	return dZ
}

// InputGrad implements Layer: one dZ_k · W_kᵀ per head, read from
// head k's band of the packed dZ and summed in head order. One GEMM
// over the packed weight would add the heads' terms in one k loop,
// which rounds differently.
func (l *GATLayer) InputGrad(dZ *tensor.Matrix) *tensor.Matrix {
	var dH *tensor.Matrix
	for k := 0; k < l.Heads; k++ {
		lo, hi := l.band(k)
		dHk := tensor.MatMulTSlice(dZ, lo, hi, l.Ws[k].W)
		if dH == nil {
			// +0 + dH₀ is dH₀: a +0-rooted sum is never −0.
			dH = dHk
			continue
		}
		dH.AddInPlace(dHk)
		tensor.Put(dHk)
	}
	return dH
}
