package tensor

import (
	"math"
	"runtime"
	"sync"
)

// Segment kernels operate on a CSR edge structure (edgePtr over
// destinations, srcIdx into the source-row matrix) — the dense-sparse
// products of the paper's Figure 5 tensor abstraction.

// SegmentSum computes out[i] = Σ_{e in segment i} src[srcIdx[e]] — the
// SpMM forward with sum aggregation. It is the fused kernel with
// neither mean nor ReLU: each row adds its edges in order from +0 into
// one accumulator. The result is pool-backed (see Get/Put).
//
//apt:hotpath
func SegmentSum(edgePtr []int64, srcIdx []int32, src *Matrix) *Matrix {
	return SegmentAggFused(edgePtr, srcIdx, src, false, false)
}

// srcMajor is a block's edges in source-major order, the transpose
// the backward kernels gather through: the edges of source row s are
// positions ptr[s]..ptr[s+1], in increasing edge id, and position p is
// edge eid[p] of destination dst[p]. A worker that owns a range of
// source rows then adds each row's terms in the order the sequential
// scatter over destinations would — the edge order — so a backward
// partitions its outputs, never its sum.
type srcMajor struct {
	ptr []int64
	dst []int32
	eid []int32
}

// srcMajors pins released transposes across garbage collections, as
// pool.go's strong free list pins matrices: a sync.Pool would drop
// them every cycle and the kernels would reallocate their index
// buffers in steady state.
var srcMajors struct {
	mu   sync.Mutex
	free []*srcMajor
}

// getSrcMajor builds the source-major order of the block's edges over
// nSrc source rows by a stable counting sort, into pinned buffers;
// putSrcMajor releases it.
func getSrcMajor(edgePtr []int64, srcIdx []int32, nSrc int) *srcMajor {
	srcMajors.mu.Lock()
	var t *srcMajor
	if n := len(srcMajors.free); n > 0 {
		t = srcMajors.free[n-1]
		srcMajors.free = srcMajors.free[:n-1]
	}
	srcMajors.mu.Unlock()
	if t == nil {
		t = &srcMajor{}
	}
	nDst := len(edgePtr) - 1
	nE := int(edgePtr[nDst] - edgePtr[0])
	t.ptr = resize(t.ptr, nSrc+1)
	t.dst = resize(t.dst, nE)
	t.eid = resize(t.eid, nE)
	clear(t.ptr)
	for _, s := range srcIdx[edgePtr[0]:edgePtr[nDst]] {
		t.ptr[s]++
	}
	var start int64
	for s, n := range t.ptr {
		t.ptr[s] = start
		start += n
	}
	// Place each edge at its row's cursor, ptr[s], which walks to the
	// row's end; shifting by one row then restores every start.
	for i := 0; i < nDst; i++ {
		for e := edgePtr[i]; e < edgePtr[i+1]; e++ {
			s := srcIdx[e]
			p := t.ptr[s]
			t.ptr[s]++
			t.dst[p], t.eid[p] = int32(i), int32(e)
		}
	}
	copy(t.ptr[1:], t.ptr[:nSrc])
	t.ptr[0] = 0
	return t
}

func putSrcMajor(t *srcMajor) {
	srcMajors.mu.Lock()
	if len(srcMajors.free) < strongPerClass {
		srcMajors.free = append(srcMajors.free, t)
	}
	srcMajors.mu.Unlock()
}

// resize returns s with length n, reusing its storage when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// SegmentSumBackward is the backward of SegmentSum:
// dSrc[srcIdx[e]] += dOut[i] for each edge e of destination i — the
// fused backward with neither mean nor ReLU. Each source row sums its
// edges in edge order, so the result is the sequential scatter's, bit
// for bit, at any GOMAXPROCS.
func SegmentSumBackward(edgePtr []int64, srcIdx []int32, dOut *Matrix, nSrc int) *Matrix {
	return SegmentAggFusedBackward(edgePtr, srcIdx, nil, dOut, false, false, nSrc)
}

// SegmentMean computes out[i] = mean over segment i (zero for empty
// segments) — GraphSAGE's mean aggregation.
func SegmentMean(edgePtr []int64, srcIdx []int32, src *Matrix) *Matrix {
	out := SegmentSum(edgePtr, srcIdx, src)
	for i := 0; i < out.Rows; i++ {
		d := edgePtr[i+1] - edgePtr[i]
		if d > 1 {
			inv := float32(1.0 / float64(d))
			or := out.Row(i)
			for j := range or {
				or[j] *= inv
			}
		}
	}
	return out
}

// SegmentWeightedSum accumulates out[i][lo:hi] += Σ_e w[e] *
// src[srcIdx[e]][lo:hi] over the edges e of destination i — the
// attention-weighted aggregation of GAT on one head's column band of
// the packed [rows, heads·dh] layout; band [0, src.Cols) is the whole
// matrix. out and src have the same width, and per element the edge
// terms add onto out's value in edge order.
//
//apt:hotpath
func SegmentWeightedSum(out *Matrix, edgePtr []int64, srcIdx []int32, w []float32, src *Matrix, lo, hi int) {
	nDst := len(edgePtr) - 1
	if runtime.GOMAXPROCS(0) == 1 || nDst < 128 {
		segmentWeightedSumRange(out, edgePtr, srcIdx, w, src, lo, hi, 0, nDst)
		return
	}
	//apt:allow hotalloc parallel fan-out body; the steady-state bench path is the sequential branch above
	parallelRows(nDst, 64, 1, func(i0, i1 int) {
		segmentWeightedSumRange(out, edgePtr, srcIdx, w, src, lo, hi, i0, i1)
	})
}

//apt:hotpath
func segmentWeightedSumRange(out *Matrix, edgePtr []int64, srcIdx []int32, w []float32, src *Matrix, lo, hi, i0, i1 int) {
	for i := i0; i < i1; i++ {
		or := out.Row(i)[lo:hi]
		for e := edgePtr[i]; e < edgePtr[i+1]; e++ {
			sr := src.Row(int(srcIdx[e]))[lo:hi]
			we := w[e]
			for j := range or {
				or[j] += we * sr[j]
			}
		}
	}
}

// segmentWeightedGatherRange runs source rows [s0, s1) of the
// weighted-sum backward on band [lo, hi): each row adds its edges'
// terms w[e]·dOut[i] into dSrc's band in edge order, and writes each of
// those edges' gradient dW[e] = src[s]·dOut[i] (an edge has one source,
// so concurrent ranges write disjoint dSrc rows and dW entries).
//
//apt:hotpath
func segmentWeightedGatherRange(t *srcMajor, w []float32, src, dOut, dSrc *Matrix, dW []float32, lo, hi, s0, s1 int) {
	for s := s0; s < s1; s++ {
		sr := src.Row(s)[lo:hi]
		ds := dSrc.Row(s)[lo:hi]
		for p := t.ptr[s]; p < t.ptr[s+1]; p++ {
			e := t.eid[p]
			dr := dOut.Row(int(t.dst[p]))[lo:hi]
			we := w[e]
			var dot float32
			for j := range dr {
				ds[j] += we * dr[j]
				dot += sr[j] * dr[j]
			}
			dW[e] = dot
		}
	}
}

// SegmentWeightedSumBackward is the backward of SegmentWeightedSum on
// band [lo, hi): it accumulates the source gradients into dSrc[:, lo:hi]
// and writes every edge's weight gradient into dW. It gathers through
// the block's source-major order, and large blocks split the source
// rows across workers, so each dSrc element adds its terms onto its
// starting value in edge order — the sequential scatter's bits at any
// GOMAXPROCS.
//
//apt:hotpath
func SegmentWeightedSumBackward(dSrc *Matrix, dW []float32, edgePtr []int64, srcIdx []int32, w []float32, src, dOut *Matrix, lo, hi int) {
	nSrc := src.Rows
	t := getSrcMajor(edgePtr, srcIdx, nSrc)
	if runtime.GOMAXPROCS(0) == 1 || nSrc < 128 {
		segmentWeightedGatherRange(t, w, src, dOut, dSrc, dW, lo, hi, 0, nSrc)
	} else {
		//apt:allow hotalloc parallel fan-out body; the steady-state bench path is the sequential branch above
		parallelRows(nSrc, 64, 1, func(s0, s1 int) {
			segmentWeightedGatherRange(t, w, src, dOut, dSrc, dW, lo, hi, s0, s1)
		})
	}
	putSrcMajor(t)
}

// SDDMMAdd computes per-edge scores score[e] = dstVal[i] + srcVal[srcIdx[e]]
// for each edge e of destination i — the additive attention logits of GAT
// (a_l·Wh_v + a_r·Wh_u).
func SDDMMAdd(edgePtr []int64, srcIdx []int32, dstVal, srcVal []float32) []float32 {
	out := make([]float32, edgePtr[len(edgePtr)-1])
	for i := 0; i+1 < len(edgePtr); i++ {
		dv := dstVal[i]
		for e := edgePtr[i]; e < edgePtr[i+1]; e++ {
			out[e] = dv + srcVal[srcIdx[e]]
		}
	}
	return out
}

// SegmentSoftmax normalizes scores within each destination's segment.
// Numerically stabilized by the per-segment max.
func SegmentSoftmax(edgePtr []int64, scores []float32) []float32 {
	out := make([]float32, len(scores))
	for i := 0; i+1 < len(edgePtr); i++ {
		lo, hi := edgePtr[i], edgePtr[i+1]
		if lo == hi {
			continue
		}
		mx := scores[lo]
		for e := lo + 1; e < hi; e++ {
			if scores[e] > mx {
				mx = scores[e]
			}
		}
		var sum float64
		for e := lo; e < hi; e++ {
			v := math.Exp(float64(scores[e] - mx))
			out[e] = float32(v)
			sum += v
		}
		inv := float32(1 / sum)
		for e := lo; e < hi; e++ {
			out[e] *= inv
		}
	}
	return out
}

// SegmentSoftmaxBackward computes dScores given the softmax output and
// dOut (gradient w.r.t. the softmax probabilities):
// dScore[e] = p[e] * (dOut[e] - Σ_f p[f] dOut[f]).
func SegmentSoftmaxBackward(edgePtr []int64, probs, dOut []float32) []float32 {
	dScores := make([]float32, len(probs))
	for i := 0; i+1 < len(edgePtr); i++ {
		lo, hi := edgePtr[i], edgePtr[i+1]
		var dot float64
		for e := lo; e < hi; e++ {
			dot += float64(probs[e]) * float64(dOut[e])
		}
		for e := lo; e < hi; e++ {
			dScores[e] = probs[e] * (dOut[e] - float32(dot))
		}
	}
	return dScores
}

// ReLU applies max(0, x) elementwise, returning a new (pool-backed)
// matrix.
func ReLU(x *Matrix) *Matrix {
	out := Get(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}

// ReLUBackward masks dOut by the forward output's support.
func ReLUBackward(out, dOut *Matrix) *Matrix {
	d := Get(dOut.Rows, dOut.Cols)
	for i, v := range out.Data {
		if v > 0 {
			d.Data[i] = dOut.Data[i]
		}
	}
	return d
}

// LeakyReLUSlice applies LeakyReLU with the given negative slope to a
// score vector (GAT's activation on attention logits).
func LeakyReLUSlice(x []float32, slope float32) []float32 {
	out := make([]float32, len(x))
	for i, v := range x {
		if v >= 0 {
			out[i] = v
		} else {
			out[i] = slope * v
		}
	}
	return out
}

// LeakyReLUSliceBackward masks gradients by the input sign.
func LeakyReLUSliceBackward(x, dOut []float32, slope float32) []float32 {
	d := make([]float32, len(x))
	for i, v := range x {
		if v >= 0 {
			d[i] = dOut[i]
		} else {
			d[i] = slope * dOut[i]
		}
	}
	return d
}
