package tensor

import (
	"math"
)

// GAT's multi-head additive attention over one block, every head in
// one pass. The projection z is packed: [nSrc, heads·dh], head k in
// column band [k·dh, (k+1)·dh), rows [:nDst] the destinations' own.
// The attention vectors come packed the same way in a [2, heads·dh]
// matrix a: row 0 is every head's aL, row 1 every head's aR. Per edge
// and head the logits and weights live edge-major, [E, heads].
//
// Each head's arithmetic is independent of the others', so running the
// heads together keeps every element's operation order of the per-head
// composition: the el/er dots add from +0 in band-column order, the
// softmax takes its max and its float64 exp/sum in edge order, every
// weighted sum and gather adds in ascending edge order, and every dZ
// element takes its gather terms, then its dEl term, then its dEr term.
// Workers own output rows, never a sum, so the bits do not depend on
// GOMAXPROCS.

// negativeSlope is the LeakyReLU slope on the attention logits.
const negativeSlope float32 = 0.2

// leaky scales x by the LeakyReLU's slope at logit s: leaky(s, s) is
// the activation, leaky(s, d) its backward for gradient d.
func leaky(s, x float32) float32 {
	if s >= 0 {
		return x
	}
	return negativeSlope * x
}

// attnJob is one attention call's operands, shared by the passes its
// workers run. It travels to parallelRows by value, so on the inline
// path it stays on the stack.
type attnJob struct {
	edgePtr   []int64
	srcIdx    []int32
	heads, dh int
	relu      bool
	// scores and alpha are the [E, heads] logits and weights, out the
	// [nDst, heads·dh] output.
	z, a, scores, alpha, out *Matrix
	// Forward: lr is [2·heads, nSrc], row k head k's el, row heads+k
	// its er. Backward: dO is the ReLU-masked dOut (dOut itself without
	// ReLU), dS the logits' gradient, [E, heads], and dE [nSrc,
	// 2·heads] each row's dEl then dEr per head.
	lr, dOut, dO, dS, dE, dZ *Matrix
	t                        *srcMajor
}

// SegmentAttention is GAT's attention forward over every head:
//
//	s_e    = aL·z[i] + aR·z[src e]       per head, e an edge of i
//	α_e    = softmax over i's edges of LeakyReLU(s_e)
//	out[i] = act(Σ_e α_e z[src e])       per head band, act ReLU if relu
//
// It returns the output and, for SegmentAttentionBackward, the logits
// and weights, all pooled.
//
//apt:hotpath
func SegmentAttention(edgePtr []int64, srcIdx []int32, z, a *Matrix, heads int, relu bool) (out, scores, alpha *Matrix) {
	nDst := len(edgePtr) - 1
	j := attnJob{edgePtr: edgePtr, srcIdx: srcIdx, heads: heads, dh: z.Cols / heads, relu: relu, z: z, a: a}
	j.lr, j.out = Get(2*heads, z.Rows), Get(nDst, z.Cols)
	j.scores, j.alpha = Get(int(edgePtr[nDst]), heads), Get(int(edgePtr[nDst]), heads)
	parallelRows(j, z.Rows, 64, 1, attnDots)
	parallelRows(j, nDst, 64, 1, attnForwardRows)
	Put(j.lr)
	return j.out, j.scores, j.alpha
}

// attnDots writes the el (destination rows only) and er dots of source
// rows [r0, r1) for every head.
//
//apt:hotpath
func attnDots(j attnJob, r0, r1 int) {
	nDst := len(j.edgePtr) - 1
	for k := 0; k < j.heads; k++ {
		lo, hi := k*j.dh, (k+1)*j.dh
		matVecSlice(j.lr.Row(j.heads + k)[r0:r1], j.z, r0, lo, hi, j.a.Row(1)[lo:hi])
		if r0 < nDst {
			matVecSlice(j.lr.Row(k)[r0:min(r1, nDst)], j.z, r0, lo, hi, j.a.Row(0)[lo:hi])
		}
	}
}

// attnForwardRows runs destinations [i0, i1): per head the logits,
// LeakyReLU and softmax over the row's edges, then the weighted sum of
// all heads, edge by edge, and the ReLU.
//
//apt:hotpath
func attnForwardRows(j attnJob, i0, i1 int) {
	h, sc, al := j.heads, j.scores.Data, j.alpha.Data
	sum := rowTerms{src: j.z.Data, ss: j.z.Cols, ws: h, dh: j.dh}
	for i := i0; i < i1; i++ {
		e0, e1 := int(j.edgePtr[i]), int(j.edgePtr[i+1])
		for k := 0; k < h; k++ {
			el, er := j.lr.Row(k)[i], j.lr.Row(h+k)
			var mx float32
			for e := e0; e < e1; e++ {
				s := el + er[j.srcIdx[e]]
				sc[e*h+k] = s
				v := leaky(s, s)
				al[e*h+k] = v
				if e == e0 || v > mx {
					mx = v
				}
			}
			var sum float64
			for e := e0; e < e1; e++ {
				v := math.Exp(float64(al[e*h+k] - mx))
				al[e*h+k] = float32(v)
				sum += v
			}
			inv := float32(1 / sum)
			for e := e0; e < e1; e++ {
				al[e*h+k] *= inv
			}
		}
		or := j.out.Row(i)
		sum.idx, sum.m, sum.w = j.srcIdx[e0:e1], e1-e0, al[e0*h:]
		rowAccum(or, &sum)
		if j.relu {
			maskPositive(or, or, or)
		}
	}
}

// SegmentAttentionBackward is SegmentAttention's backward, given its
// operands, its output and the output's gradient dOut: it returns the
// gradient of z and dA, the attention vectors' gradient packed as a
// (row 0 aL, row 1 aR), both pooled. Each dA element is a row-order
// sum from +0, for the caller to add once onto its parameter's.
//
//apt:hotpath
func SegmentAttentionBackward(edgePtr []int64, srcIdx []int32, z, a, scores, alpha, out, dOut *Matrix, relu bool) (dZ, dA *Matrix) {
	nDst, nSrc, heads := len(edgePtr)-1, z.Rows, scores.Cols
	j := attnJob{edgePtr: edgePtr, srcIdx: srcIdx, heads: heads, dh: z.Cols / heads, relu: relu, z: z, a: a}
	j.scores, j.alpha, j.out, j.dOut, j.dO = scores, alpha, out, dOut, dOut
	if relu {
		j.dO = Get(nDst, z.Cols)
	}
	j.dS, j.dE, j.dZ = Get(scores.Rows, heads), Get(nSrc, 2*heads), Get(nSrc, z.Cols)
	j.t = getSrcMajor(edgePtr, srcIdx, nSrc)
	parallelRows(j, nDst, 64, 1, attnBackwardDstRows)
	parallelRows(j, nSrc, 64, 1, attnBackwardSrcRows)
	dZ, dA = j.dZ, Get(2, z.Cols)
	attnVecGrads(j, dA)
	putSrcMajor(j.t)
	if relu {
		Put(j.dO)
	}
	Put(j.dS)
	Put(j.dE)
	return dZ, dA
}

// attnBackwardDstRows runs destinations [i0, i1): the ReLU mask of the
// row's gradient, then per head each edge's weight gradient dα (a dot
// from +0), the softmax and LeakyReLU backward into dS, and dEl, the
// sum of the row's dS from +0 in edge order.
//
//apt:hotpath
func attnBackwardDstRows(j attnJob, i0, i1 int) {
	h, dh := j.heads, j.dh
	al, sc, ds := j.alpha.Data, j.scores.Data, j.dS.Data
	for i := i0; i < i1; i++ {
		dr := j.dO.Row(i)
		if j.relu {
			maskPositive(dr, j.dOut.Row(i), j.out.Row(i))
		}
		e0, e1 := int(j.edgePtr[i]), int(j.edgePtr[i+1])
		for k := 0; k < h; k++ {
			db := dr[k*dh : (k+1)*dh]
			var dot float64
			for e := e0; e < e1; e++ {
				zb := j.z.Row(int(j.srcIdx[e]))[k*dh : (k+1)*dh]
				var d float32
				for c := range db {
					d += zb[c] * db[c]
				}
				ds[e*h+k] = d
				dot += float64(al[e*h+k]) * float64(d)
			}
			for e := e0; e < e1; e++ {
				ds[e*h+k] = leaky(sc[e*h+k], al[e*h+k]*(ds[e*h+k]-float32(dot)))
				j.dE.Data[i*2*h+k] += ds[e*h+k]
			}
		}
	}
}

// attnBackwardSrcRows runs source rows [s0, s1) over the block's
// source-major order, in ascending edge order: the row's dEr (from +0)
// adds each edge's dS, the row of dZ gathers each edge's α·dO per head,
// then takes the rank-1 terms dEl·aL (destination rows) and dEr·aR.
//
//apt:hotpath
func attnBackwardSrcRows(j attnJob, s0, s1 int) {
	h, dh, nDst := j.heads, j.dh, len(j.edgePtr)-1
	al, ds, t := j.alpha.Data, j.dS.Data, j.t
	gather := rowTerms{src: j.dO.Data, ss: j.dO.Cols, w: al, ws: h, dh: dh}
	rank1 := rowTerms{ss: j.a.Cols, ws: h, dh: dh}
	for s := s0; s < s1; s++ {
		dzr, dE := j.dZ.Row(s), j.dE.Row(s)
		p0, p1 := t.ptr[s], t.ptr[s+1]
		for _, e := range t.eid[p0:p1] {
			for k, g := range ds[int(e)*h : (int(e)+1)*h] {
				dE[h+k] += g
			}
		}
		gather.idx, gather.wi, gather.m = t.dst[p0:p1], t.eid[p0:p1], int(p1-p0)
		rowAccum(dzr, &gather)
		// Rows 0 and 1 of a weighted by dE's halves: dEl·aL, then dEr·aR.
		if s < nDst {
			rank1.src, rank1.m, rank1.w = j.a.Data, 2, dE
		} else {
			rank1.src, rank1.m, rank1.w = j.a.Row(1), 1, dE[h:]
		}
		rowAccum(dzr, &rank1)
	}
}

// attnVecGrads writes into dA (zeroed) the attention vectors' gradient:
// aL's is Σ dEl[i]·z[i] over the destination rows, aR's Σ dEr[s]·z[s]
// over all source rows, per head band, each element a sum from +0 in
// row order.
//
//apt:hotpath
func attnVecGrads(j attnJob, dA *Matrix) {
	h, nDst := j.heads, len(j.edgePtr)-1
	if j.z.Rows == 0 { // no dE rows to take the aR half of
		return
	}
	dEl := rowTerms{src: j.z.Data, ss: j.z.Cols, m: nDst, w: j.dE.Data, ws: 2 * h, dh: j.dh}
	rowAccum(dA.Row(0), &dEl)
	dEr := rowTerms{src: j.z.Data, ss: j.z.Cols, m: j.z.Rows, w: j.dE.Data[h:], ws: 2 * h, dh: j.dh}
	rowAccum(dA.Row(1), &dEr)
}
