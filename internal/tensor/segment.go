package tensor

import "sync"

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

// SDDMMAdd computes per-edge scores score[e] = dstVal[i] + srcVal[srcIdx[e]]
// for each edge e of destination i — the additive attention logits of GAT
// (a_l·Wh_v + a_r·Wh_u) as a standalone pass. GAT itself forms them inside
// SegmentAttention; the benchmark's per-layer probe times this one.
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

// ReLUBackward masks dOut by the forward output's support.
func ReLUBackward(out, dOut *Matrix) *Matrix {
	d := Get(dOut.Rows, dOut.Cols)
	maskPositive(d.Data, dOut.Data, out.Data)
	return d
}
