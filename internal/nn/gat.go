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

type gatHeadCtx struct {
	z     *tensor.Matrix // projected sources [nSrc, dh]
	sRaw  []float32      // pre-LeakyReLU logits
	alpha []float32      // attention probabilities
}

type gatCtx struct {
	h    *tensor.Matrix    // layer input on the plain path
	src  tensor.FeatSource // the feature store view when idx is set
	idx  []int32           // non-nil: input row r is src row idx[r] (gather-fused)
	attn *gatAttnCtx
}

// setHead copies the [rows, dh] matrix zk into head k's column band of
// the packed [rows, heads·dh] matrix z; getHead is the reverse copy.
// Projections and their gradients cross the wire packed, one row per
// node, while the attention kernels work one head at a time.
func setHead(z *tensor.Matrix, k int, zk *tensor.Matrix) {
	dh := zk.Cols
	for i := 0; i < zk.Rows; i++ {
		copy(z.Row(i)[k*dh:(k+1)*dh], zk.Row(i))
	}
}

func getHead(zk *tensor.Matrix, z *tensor.Matrix, k int) {
	dh := zk.Cols
	for i := 0; i < zk.Rows; i++ {
		copy(zk.Row(i), z.Row(i)[k*dh:(k+1)*dh])
	}
}

// projectHead computes head k's source projection Z = input · W_k over
// a plain input h or — when idx is set — feature rows read through idx
// with no gathered copy, dequantizing warm-tier rows on the fly.
func (l *GATLayer) projectHead(k int, h *tensor.Matrix, src tensor.FeatSource, idx []int32) *tensor.Matrix {
	if idx != nil {
		return tensor.GatherMatMulSrc(src, idx, l.Ws[k].W)
	}
	return tensor.MatMul(h, l.Ws[k].W)
}

// ProjWidth implements SplitLayer: all heads, packed side by side.
func (l *GATLayer) ProjWidth() int { return l.OutDim() }

// PreSums implements SplitLayer: attention weights depend on every
// source's full projection, so nothing can be reduced before shipping.
func (l *GATLayer) PreSums() bool { return false }

// ProjectCols implements SplitLayer: every head's projection, packed.
func (l *GATLayer) ProjectCols(feats tensor.FeatSource, idx []int32, lo, hi int) *tensor.Matrix {
	z := tensor.New(len(idx), l.OutDim())
	for k := range l.Ws {
		zk := tensor.GatherMatMulSliceSrc(feats, idx, lo, hi, rowShard(l.Ws[k].W, lo, hi))
		setHead(z, k, zk)
		tensor.Put(zk)
	}
	return z
}

// ProjectColsBackward implements SplitLayer.
func (l *GATLayer) ProjectColsBackward(feats tensor.FeatSource, idx []int32, lo, hi int, dZ *tensor.Matrix) {
	dZk := tensor.Get(dZ.Rows, l.OutPerHead())
	for k := range l.Ws {
		getHead(dZk, dZ, k)
		tensor.GatherTMatMulAccSliceSrc(rowShard(l.Ws[k].G, lo, hi), feats, idx, lo, hi, dZk)
	}
	tensor.Put(dZk)
}

// FLOPs implements Layer. Per head: projection, then attention scores
// plus weighted sum over the edges.
func (l *GATLayer) FLOPs(nSrc, cols, nEdges int64) (dense, sparse float64) {
	out := float64(l.OutDim())
	return 2 * float64(nSrc) * float64(cols) * out, 6 * float64(nEdges) * out
}

// headAttention runs one head's attention given the already-projected
// sources z (rows aligned with blk.Src; rows [:NumDst] are the
// destinations' own projections).
func (l *GATLayer) headAttention(k int, blk *sample.Block, z *tensor.Matrix) (*tensor.Matrix, gatHeadCtx) {
	er := tensor.MatMul(z, l.ARs[k].W) // [nSrc, 1]
	nDst := blk.NumDst()
	el := make([]float32, nDst)
	zdst := tensor.FromData(nDst, z.Cols, z.Data[:nDst*z.Cols])
	elm := tensor.MatMul(zdst, l.ALs[k].W)
	copy(el, elm.Data)
	tensor.Put(elm)
	sRaw := tensor.SDDMMAdd(blk.EdgePtr, blk.SrcIdx, el, er.Data)
	tensor.Put(er)
	s := tensor.LeakyReLUSlice(sRaw, l.NegativeSlope)
	alpha := tensor.SegmentSoftmax(blk.EdgePtr, s)
	o := tensor.SegmentWeightedSum(blk.EdgePtr, blk.SrcIdx, alpha, z)
	return o, gatHeadCtx{z: z, sRaw: sRaw, alpha: alpha}
}

// gatAttnCtx carries the attention intermediates of all heads between
// attentionForward and attentionBackward.
type gatAttnCtx struct {
	heads []gatHeadCtx
	out   *tensor.Matrix
}

// attentionForward runs every head's attention given the per-head
// source projections zs (each aligned with blk.Src) and returns the
// concatenated, activated output.
func (l *GATLayer) attentionForward(blk *sample.Block, zs []*tensor.Matrix) (*tensor.Matrix, *gatAttnCtx) {
	concat := tensor.Get(blk.NumDst(), l.OutDim())
	ctx := &gatAttnCtx{heads: make([]gatHeadCtx, l.Heads)}
	for k := 0; k < l.Heads; k++ {
		o, hc := l.headAttention(k, blk, zs[k])
		ctx.heads[k] = hc
		setHead(concat, k, o)
		tensor.Put(o)
	}
	// Activation applied in place on the concat buffer — no extra clone.
	if l.Act == ActReLU {
		tensor.ReLUInPlace(concat)
	}
	ctx.out = concat
	return ctx.out, ctx
}

// attentionBackward propagates dOut through activation and every
// head's attention, accumulating aL/aR gradients, and returns the
// per-head gradients w.r.t. the projections zs. The activation mask is
// fused into the per-head slice extraction, eliminating the masked
// copy of the full concatenated gradient.
func (l *GATLayer) attentionBackward(blk *sample.Block, ctx *gatAttnCtx, dOut *tensor.Matrix) []*tensor.Matrix {
	nDst := blk.NumDst()
	dh := l.OutPerHead()
	relu := l.Act == ActReLU
	dZs := make([]*tensor.Matrix, l.Heads)
	for k := 0; k < l.Heads; k++ {
		dO := tensor.Get(nDst, dh)
		for i := 0; i < nDst; i++ {
			dr := dOut.Row(i)[k*dh : (k+1)*dh]
			dst := dO.Row(i)
			if relu {
				or := ctx.out.Row(i)[k*dh : (k+1)*dh]
				for j := range dst {
					if or[j] > 0 { // dO starts zeroed; masked entries stay 0
						dst[j] = dr[j]
					}
				}
			} else {
				copy(dst, dr)
			}
		}
		dZs[k] = l.headBackwardToProjection(k, blk, ctx.heads[k], dO)
		tensor.Put(dO)
	}
	return dZs
}

// Finish implements SplitLayer: z holds every block source's packed
// projection; attention runs on its per-head columns.
func (l *GATLayer) Finish(blk *sample.Block, z *tensor.Matrix) (*tensor.Matrix, LayerCtx) {
	zs := make([]*tensor.Matrix, l.Heads)
	for k := range zs {
		zs[k] = tensor.New(z.Rows, l.OutPerHead())
		getHead(zs[k], z, k)
	}
	tensor.Put(z)
	return l.attentionForward(blk, zs)
}

// FinishBackward implements SplitLayer: the packed gradient of z.
func (l *GATLayer) FinishBackward(blk *sample.Block, ctx LayerCtx, dOut *tensor.Matrix) *tensor.Matrix {
	dZ := tensor.New(blk.NumSrc(), l.OutDim())
	for k, dZk := range l.attentionBackward(blk, ctx.(*gatAttnCtx), dOut) {
		setHead(dZ, k, dZk)
		tensor.Put(dZk)
	}
	return dZ
}

// forward is the shared training forward over a plain or gather-fused
// input.
func (l *GATLayer) forward(blk *sample.Block, h *tensor.Matrix, src tensor.FeatSource, idx []int32) (*tensor.Matrix, LayerCtx) {
	zs := make([]*tensor.Matrix, l.Heads)
	for k := range zs {
		zs[k] = l.projectHead(k, h, src, idx)
	}
	out, attn := l.attentionForward(blk, zs)
	return out, &gatCtx{h: h, src: src, idx: idx, attn: attn}
}

// Forward implements Layer.
func (l *GATLayer) Forward(blk *sample.Block, h *tensor.Matrix) (*tensor.Matrix, LayerCtx) {
	if h.Rows != blk.NumSrc() {
		panic(fmt.Sprintf("nn: GAT forward got %d src rows, block has %d", h.Rows, blk.NumSrc()))
	}
	return l.forward(blk, h, tensor.FeatSource{}, nil)
}

// ForwardGathered implements GatherLayer: per-head projections read the
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

// backward is the shared backward: attention and projection parameter
// gradients always; the input gradient (one dH GEMM per head) only when
// wantInput is set, nil otherwise.
func (l *GATLayer) backward(blk *sample.Block, ctx *gatCtx, dOut *tensor.Matrix, wantInput bool) *tensor.Matrix {
	dZs := l.attentionBackward(blk, ctx.attn, dOut)
	var dHTotal *tensor.Matrix
	if wantInput {
		dHTotal = tensor.Get(blk.NumSrc(), l.InDim())
	}
	for k, dZ := range dZs {
		if ctx.idx != nil {
			tensor.GatherTMatMulAccSrc(l.Ws[k].G, ctx.src, ctx.idx, dZ)
		} else {
			tensor.TMatMulAcc(l.Ws[k].G, ctx.h, dZ)
		}
		if wantInput {
			dH := tensor.MatMulT(dZ, l.Ws[k].W)
			dHTotal.AddInPlace(dH)
			tensor.Put(dH)
		}
		tensor.Put(dZ)
		// zs[k] was created by this layer's forward; the head ctx is done
		// with it once its gradient is propagated.
		tensor.Put(ctx.attn.heads[k].z)
	}
	return dHTotal
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

// headBackwardToProjection propagates one head's output gradient back
// to the projected features Z, accumulating attention-vector gradients.
func (l *GATLayer) headBackwardToProjection(k int, blk *sample.Block, c gatHeadCtx, dO *tensor.Matrix) *tensor.Matrix {
	dh := l.OutPerHead()
	nDst := blk.NumDst()
	dZ, dAlpha := tensor.SegmentWeightedSumBackward(blk.EdgePtr, blk.SrcIdx, c.alpha, c.z, dO)
	dS := tensor.SegmentSoftmaxBackward(blk.EdgePtr, c.alpha, dAlpha)
	dSRaw := tensor.LeakyReLUSliceBackward(c.sRaw, dS, l.NegativeSlope)
	dEl := make([]float32, nDst)
	dEr := make([]float32, blk.NumSrc())
	for i := 0; i < nDst; i++ {
		for e := blk.EdgePtr[i]; e < blk.EdgePtr[i+1]; e++ {
			dEl[i] += dSRaw[e]
			dEr[blk.SrcIdx[e]] += dSRaw[e]
		}
	}
	zdst := tensor.FromData(nDst, dh, c.z.Data[:nDst*dh])
	gl := tensor.TMatMul(zdst, tensor.FromData(nDst, 1, dEl))
	l.ALs[k].G.AddInPlace(gl)
	tensor.Put(gl)
	gr := tensor.TMatMul(c.z, tensor.FromData(blk.NumSrc(), 1, dEr))
	l.ARs[k].G.AddInPlace(gr)
	tensor.Put(gr)
	aL, aR := l.ALs[k].W.Data, l.ARs[k].W.Data
	for i := 0; i < nDst; i++ {
		row := dZ.Row(i)
		for j := 0; j < dh; j++ {
			row[j] += dEl[i] * aL[j]
		}
	}
	for i := 0; i < blk.NumSrc(); i++ {
		row := dZ.Row(i)
		for j := 0; j < dh; j++ {
			row[j] += dEr[i] * aR[j]
		}
	}
	return dZ
}
