package nn

import (
	"fmt"

	"repro/internal/sample"
	"repro/internal/tensor"
)

// GATLayer implements multi-head additive attention (Velickovic et al.):
//
//	e_uv   = LeakyReLU( aL · (W h_v) + aR · (W h_u) )
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
// the attention kernels read and write each head's band in place. Per
// output element every kernel adds in the order the per-head products
// did, so the packed layer is bit-identical to running the heads one
// at a time.
type GATLayer struct {
	// Ws[k] projects inputs for head k; ALs[k]/ARs[k] are the
	// destination/source halves of head k's attention vector, stored as
	// [outPerHead x 1] matrices.
	Ws    []*Param
	ALs   []*Param
	ARs   []*Param
	Heads int
	Act   Activation
	// NegativeSlope of the LeakyReLU on attention logits.
	NegativeSlope float32
}

// NewGATLayer creates a GAT layer with the given head count; the output
// dimension is heads*outPerHead (concatenation).
func NewGATLayer(name string, in, outPerHead, heads int, act Activation) *GATLayer {
	l := &GATLayer{Heads: heads, Act: act, NegativeSlope: 0.2}
	for k := 0; k < heads; k++ {
		l.Ws = append(l.Ws, NewParam(fmt.Sprintf("%s.W%d", name, k), in, outPerHead))
		l.ALs = append(l.ALs, NewParam(fmt.Sprintf("%s.aL%d", name, k), outPerHead, 1))
		l.ARs = append(l.ARs, NewParam(fmt.Sprintf("%s.aR%d", name, k), outPerHead, 1))
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

type gatCtx struct {
	h    *tensor.Matrix    // layer input on the plain path
	src  tensor.FeatSource // the feature store view when idx is set
	idx  []int32           // non-nil: input row r is src row idx[r] (gather-fused)
	attn *gatAttnCtx
}

// gatAttnCtx carries the attention intermediates from Finish to
// FinishBackward: the packed projection z of every block source, which
// it owns, and per head the pre-LeakyReLU logits and the attention
// probabilities.
type gatAttnCtx struct {
	z     *tensor.Matrix
	sRaw  [][]float32
	alpha [][]float32
	out   *tensor.Matrix
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

// project computes every head's source projection, packed, over a
// plain input h or — when idx is set — feature rows read through idx.
func (l *GATLayer) project(h *tensor.Matrix, src tensor.FeatSource, idx []int32) *tensor.Matrix {
	if idx != nil {
		return l.ProjectCols(src, idx, 0, l.InDim())
	}
	w := l.packed(false, 0, l.InDim())
	z := tensor.MatMul(h, w)
	l.unpack(w, false, 0, l.InDim())
	return z
}

// ProjWidth implements SplitLayer: all heads, packed side by side.
func (l *GATLayer) ProjWidth() int { return l.OutDim() }

// PreSums implements SplitLayer: attention weights depend on every
// source's full projection, so nothing can be reduced before shipping.
func (l *GATLayer) PreSums() bool { return false }

// ProjectCols implements SplitLayer: every head's projection in one
// GEMM over the packed weight; the kernel reads the feature store
// through idx, dequantizing warm-tier rows once for all heads.
func (l *GATLayer) ProjectCols(feats tensor.FeatSource, idx []int32, lo, hi int) *tensor.Matrix {
	w := l.packed(false, lo, hi)
	z := tensor.GatherMatMulSliceSrc(feats, idx, lo, hi, w)
	l.unpack(w, false, lo, hi)
	return z
}

// ProjectColsBackward implements SplitLayer: one accumulate into the
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

// Finish implements SplitLayer: z holds every block source's packed
// projection (rows [:NumDst] are the destinations' own); each head's
// attention runs on its band and writes its band of the concatenated,
// activated output. The context keeps z.
func (l *GATLayer) Finish(blk *sample.Block, z *tensor.Matrix) (*tensor.Matrix, LayerCtx) {
	nDst, nSrc := blk.NumDst(), blk.NumSrc()
	out := tensor.Get(nDst, l.OutDim())
	c := &gatAttnCtx{z: z, sRaw: make([][]float32, l.Heads), alpha: make([][]float32, l.Heads), out: out}
	e := tensor.Get(1, nDst+nSrc)
	el, er := e.Data[:nDst], e.Data[nDst:]
	for k := 0; k < l.Heads; k++ {
		lo, hi := l.band(k)
		tensor.MatVecSlice(el, z, lo, hi, l.ALs[k].W.Data)
		tensor.MatVecSlice(er, z, lo, hi, l.ARs[k].W.Data)
		c.sRaw[k] = tensor.SDDMMAdd(blk.EdgePtr, blk.SrcIdx, el, er)
		c.alpha[k] = tensor.SegmentSoftmax(blk.EdgePtr, tensor.LeakyReLUSlice(c.sRaw[k], l.NegativeSlope))
		tensor.SegmentWeightedSum(out, blk.EdgePtr, blk.SrcIdx, c.alpha[k], z, lo, hi)
	}
	tensor.Put(e)
	if l.Act == ActReLU {
		tensor.ReLUInPlace(out)
	}
	return out, c
}

// FinishBackward implements SplitLayer: the packed gradient of z,
// accumulating the attention vectors' gradients. It releases z.
func (l *GATLayer) FinishBackward(blk *sample.Block, ctx LayerCtx, dOut *tensor.Matrix) *tensor.Matrix {
	c := ctx.(*gatAttnCtx)
	nDst, nSrc := blk.NumDst(), blk.NumSrc()
	dO := dOut
	if l.Act == ActReLU {
		dO = tensor.ReLUBackward(c.out, dOut)
	}
	dZ := tensor.Get(nSrc, l.OutDim())
	zdst := tensor.FromData(nDst, c.z.Cols, c.z.Data[:nDst*c.z.Cols])
	dAlpha := make([]float32, len(blk.SrcIdx))
	dE := tensor.Get(1, nDst+nSrc)
	dEl, dEr := dE.Data[:nDst], dE.Data[nDst:]
	for k := 0; k < l.Heads; k++ {
		lo, hi := l.band(k)
		tensor.SegmentWeightedSumBackward(dZ, dAlpha, blk.EdgePtr, blk.SrcIdx, c.alpha[k], c.z, dO, lo, hi)
		dS := tensor.SegmentSoftmaxBackward(blk.EdgePtr, c.alpha[k], dAlpha)
		dSRaw := tensor.LeakyReLUSliceBackward(c.sRaw[k], dS, l.NegativeSlope)
		dE.Zero()
		for i := 0; i < nDst; i++ {
			for e := blk.EdgePtr[i]; e < blk.EdgePtr[i+1]; e++ {
				dEl[i] += dSRaw[e]
				dEr[blk.SrcIdx[e]] += dSRaw[e]
			}
		}
		addAttnGrad(l.ALs[k].G, zdst, lo, hi, dEl)
		addAttnGrad(l.ARs[k].G, c.z, lo, hi, dEr)
		aL, aR := l.ALs[k].W.Data, l.ARs[k].W.Data
		for i := 0; i < nDst; i++ {
			row := dZ.Row(i)[lo:hi]
			for j := range row {
				row[j] += dEl[i] * aL[j]
			}
		}
		for i := 0; i < nSrc; i++ {
			row := dZ.Row(i)[lo:hi]
			for j := range row {
				row[j] += dEr[i] * aR[j]
			}
		}
	}
	if dO != dOut {
		tensor.Put(dO)
	}
	tensor.Put(dE)
	tensor.Put(c.z)
	return dZ
}

// addAttnGrad adds z[:, lo:hi]ᵀ · d to an attention vector's gradient
// g. The product is formed from +0 before it is added: those are the
// bits the golden pins, a +0-rooted sum then one add, not the terms
// accumulated onto g itself.
func addAttnGrad(g, z *tensor.Matrix, lo, hi int, d []float32) {
	t := tensor.Get(hi-lo, 1)
	tensor.TMatMulAccSlice(t, z, lo, hi, tensor.FromData(len(d), 1, d))
	g.AddInPlace(t)
	tensor.Put(t)
}

// forward is the shared training forward over a plain or gather-fused
// input: Finish on the packed projection.
func (l *GATLayer) forward(blk *sample.Block, h *tensor.Matrix, src tensor.FeatSource, idx []int32) (*tensor.Matrix, LayerCtx) {
	out, attn := l.Finish(blk, l.project(h, src, idx))
	return out, &gatCtx{h: h, src: src, idx: idx, attn: attn.(*gatAttnCtx)}
}

// Forward implements Layer.
func (l *GATLayer) Forward(blk *sample.Block, h *tensor.Matrix) (*tensor.Matrix, LayerCtx) {
	if h.Rows != blk.NumSrc() {
		panic(fmt.Sprintf("nn: GAT forward got %d src rows, block has %d", h.Rows, blk.NumSrc()))
	}
	return l.forward(blk, h, tensor.FeatSource{}, nil)
}

// ForwardGathered implements GatherLayer: the projection reads the
// feature store through idx, no gathered copy.
func (l *GATLayer) ForwardGathered(blk *sample.Block, feats tensor.FeatSource, idx []int32) (*tensor.Matrix, LayerCtx) {
	if len(idx) != blk.NumSrc() {
		panic(fmt.Sprintf("nn: GAT forward got %d src indices, block has %d", len(idx), blk.NumSrc()))
	}
	if idx == nil {
		idx = []int32{} // empty block: stay on the gather-fused path
	}
	return l.forward(blk, nil, feats, idx)
}

// backward is the shared backward, FinishBackward then the projection's:
// attention and projection parameter gradients always; the input
// gradient (one dH GEMM per head) only when wantInput is set, nil
// otherwise.
func (l *GATLayer) backward(blk *sample.Block, c *gatCtx, dOut *tensor.Matrix, wantInput bool) *tensor.Matrix {
	dZ := l.FinishBackward(blk, c.attn, dOut)
	if c.idx != nil {
		l.ProjectColsBackward(c.src, c.idx, 0, l.InDim(), dZ)
	} else {
		g := l.packed(true, 0, l.InDim())
		tensor.TMatMulAcc(g, c.h, dZ)
		l.unpack(g, true, 0, l.InDim())
	}
	var dH *tensor.Matrix
	for k := 0; wantInput && k < l.Heads; k++ {
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
	tensor.Put(dZ)
	return dH
}

// Backward implements Layer.
func (l *GATLayer) Backward(blk *sample.Block, ctx LayerCtx, dOut *tensor.Matrix) *tensor.Matrix {
	return l.backward(blk, ctx.(*gatCtx), dOut, true)
}

// BackwardParams implements GatherLayer: attention + projection
// parameter gradients only, no dIn and no per-head dH matrices.
func (l *GATLayer) BackwardParams(blk *sample.Block, ctx LayerCtx, dOut *tensor.Matrix) {
	l.backward(blk, ctx.(*gatCtx), dOut, false)
}
