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
// SpMM forward with sum aggregation. The result is pool-backed (see
// Get/Put).
func SegmentSum(edgePtr []int64, srcIdx []int32, src *Matrix) *Matrix {
	nDst := len(edgePtr) - 1
	out := Get(nDst, src.Cols)
	parallelRows(nDst, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			or := out.Row(i)
			for e := edgePtr[i]; e < edgePtr[i+1]; e++ {
				sr := src.Row(int(srcIdx[e]))
				for j := range or {
					or[j] += sr[j]
				}
			}
		}
	})
	return out
}

// segBackwardMinDst is the destination count below which the scatter
// backwards run sequentially (per-worker partial matrices are not
// worth their zeroing/merging cost on small blocks).
const segBackwardMinDst = 256

// segmentScatterRange accumulates dOut rows [lo, hi) into dSrc.
//
//apt:hotpath
func segmentScatterRange(edgePtr []int64, srcIdx []int32, dOut, dSrc *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		dr := dOut.Row(i)
		for e := edgePtr[i]; e < edgePtr[i+1]; e++ {
			sr := dSrc.Row(int(srcIdx[e]))
			for j := range dr {
				sr[j] += dr[j]
			}
		}
	}
}

// scatterWorkers picks the worker count for a parallel scatter over
// nDst destinations into nSrc x cols partial accumulators, bounding the
// zero+merge overhead relative to the scatter work itself.
func scatterWorkers(nDst int) int {
	workers := runtime.GOMAXPROCS(0)
	if w := nDst / (segBackwardMinDst / 4); w < workers {
		workers = w
	}
	return workers
}

// SegmentSumBackward scatters dOut back to source rows:
// dSrc[srcIdx[e]] += dOut[i] for each edge e of destination i.
//
// Multiple destinations may share a source row, so a naive parallel
// scatter would race; large blocks instead scatter into per-worker
// partial matrices merged in worker order (the TMatMul scheme). The
// result is deterministic for a fixed GOMAXPROCS but sums in a
// different order than the sequential path (float32 reassociation on
// the order of the usual 1e-6 relative error).
func SegmentSumBackward(edgePtr []int64, srcIdx []int32, dOut *Matrix, nSrc int) *Matrix {
	dSrc := Get(nSrc, dOut.Cols)
	nDst := dOut.Rows
	workers := scatterWorkers(nDst)
	if nDst < segBackwardMinDst || workers <= 1 {
		segmentScatterRange(edgePtr, srcIdx, dOut, dSrc, 0, nDst)
		return dSrc
	}
	partials := make([]*Matrix, workers)
	var wg sync.WaitGroup
	chunk := (nDst + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= nDst {
			break
		}
		hi := lo + chunk
		if hi > nDst {
			hi = nDst
		}
		partials[w] = Get(nSrc, dOut.Cols)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			segmentScatterRange(edgePtr, srcIdx, dOut, partials[w], lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, p := range partials {
		if p != nil {
			dSrc.AddInPlace(p)
			Put(p)
		}
	}
	return dSrc
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

// SegmentMeanBackward is the backward of SegmentMean. It parallelizes
// like SegmentSumBackward (same determinism caveat).
func SegmentMeanBackward(edgePtr []int64, srcIdx []int32, dOut *Matrix, nSrc int) *Matrix {
	scaled := Get(dOut.Rows, dOut.Cols)
	copy(scaled.Data, dOut.Data)
	for i := 0; i < scaled.Rows; i++ {
		d := edgePtr[i+1] - edgePtr[i]
		if d > 1 {
			inv := float32(1.0 / float64(d))
			sr := scaled.Row(i)
			for j := range sr {
				sr[j] *= inv
			}
		}
	}
	dSrc := SegmentSumBackward(edgePtr, srcIdx, scaled, nSrc)
	Put(scaled)
	return dSrc
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
	parallelRows(nDst, 64, func(i0, i1 int) {
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

// segmentWeightedScatterRange accumulates destinations [i0, i1) of the
// weighted-sum backward on band [lo, hi) into dSrc's columns starting
// at dlo, and writes their edge gradients into dW (each edge belongs to
// exactly one destination, so concurrent ranges write disjoint dW
// entries).
//
//apt:hotpath
func segmentWeightedScatterRange(edgePtr []int64, srcIdx []int32, w []float32, src, dOut, dSrc *Matrix, dW []float32, lo, hi, dlo, i0, i1 int) {
	n := hi - lo
	for i := i0; i < i1; i++ {
		dr := dOut.Row(i)[lo:hi]
		for e := edgePtr[i]; e < edgePtr[i+1]; e++ {
			si := int(srcIdx[e])
			sr := src.Row(si)[lo:hi]
			ds := dSrc.Row(si)[dlo : dlo+n]
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
// and writes every edge's weight gradient into dW. Large blocks
// parallelize over destination ranges: the first worker scatters into
// the band itself, every other one into a partial one band wide, and
// the partials are merged into the band in worker order (same
// determinism caveat as SegmentSumBackward). On a zero band — GAT's
// case — that is bit for bit a zeroed partial per worker, since a
// +0-rooted sum is never −0. dW entries are disjoint per destination
// and are written in place by every worker.
//
//apt:hotpath
func SegmentWeightedSumBackward(dSrc *Matrix, dW []float32, edgePtr []int64, srcIdx []int32, w []float32, src, dOut *Matrix, lo, hi int) {
	nDst := dOut.Rows
	workers := scatterWorkers(nDst)
	if nDst < segBackwardMinDst || workers <= 1 {
		segmentWeightedScatterRange(edgePtr, srcIdx, w, src, dOut, dSrc, dW, lo, hi, lo, 0, nDst)
		return
	}
	n := hi - lo
	//apt:allow hotalloc per-worker partials on the parallel fan-out; the steady-state bench path is the sequential branch above
	partials := make([]*Matrix, workers)
	var wg sync.WaitGroup
	chunk := (nDst + workers - 1) / workers
	for wk := 0; wk < workers; wk++ {
		i0 := wk * chunk
		if i0 >= nDst {
			break
		}
		i1 := i0 + chunk
		if i1 > nDst {
			i1 = nDst
		}
		dst, dlo := dSrc, lo
		if wk > 0 {
			partials[wk] = Get(src.Rows, n)
			dst, dlo = partials[wk], 0
		}
		wg.Add(1)
		//apt:allow hotalloc parallel fan-out goroutines; see the partials allow above
		go func(dst *Matrix, dlo, i0, i1 int) {
			defer wg.Done()
			segmentWeightedScatterRange(edgePtr, srcIdx, w, src, dOut, dst, dW, lo, hi, dlo, i0, i1)
		}(dst, dlo, i0, i1)
	}
	wg.Wait()
	for _, p := range partials[1:] {
		if p == nil {
			continue
		}
		for r := 0; r < p.Rows; r++ {
			pr := p.Data[r*n : (r+1)*n]
			ds := dSrc.Data[r*dSrc.Cols+lo:][:len(pr)]
			for j, v := range pr {
				ds[j] += v
			}
		}
		Put(p)
	}
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
