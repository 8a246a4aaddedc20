package tensor

import (
	"runtime"
	"sync"
)

// Gather- and epilogue-fused segment kernels. These collapse the
// unfused chains the layers used to run as separate full passes —
// SegmentSum/Mean → normalize → activation clone on the forward, and
// ReLU mask → mean scale → scatter on the backward — into one pass per
// output row while it is cache-hot. Per output element the edge terms
// still accumulate in increasing edge order with a single accumulator,
// and the normalization/activation apply only after a row's sum is
// complete, so results are bit-identical to the unfused composition.

// ReLUInPlace applies max(0, x) elementwise in place. Negative zero and
// NaN map to +0, matching ReLU's zero-initialized copy semantics.
//
//apt:hotpath
func ReLUInPlace(x *Matrix) {
	for i, v := range x.Data {
		if !(v > 0) {
			x.Data[i] = 0
		}
	}
}

// SegmentAggFused computes, in one pass per destination row,
//
//	out[i] = act(norm(Σ_{e in segment i} src[srcIdx[e]]))
//
// where norm divides by the segment degree when mean is set (empty and
// single-edge segments are untouched, matching SegmentMean) and act is
// ReLU when relu is set. This is the SpMM forward with the aggregator
// epilogue fused: the sum completes before the epilogue touches the
// row, so the result is bit-identical to
// ReLU(SegmentMean(...)) / ReLU(SegmentSum(...)).
//
//apt:hotpath
func SegmentAggFused(edgePtr []int64, srcIdx []int32, src *Matrix, mean, relu bool) *Matrix {
	nDst := len(edgePtr) - 1
	out := Get(nDst, src.Cols)
	if runtime.GOMAXPROCS(0) == 1 || nDst < 128 {
		segmentAggRange(edgePtr, srcIdx, src, out, mean, relu, 0, nDst)
		return out
	}
	//apt:allow hotalloc parallel fan-out body; the steady-state bench path is the sequential branch above
	parallelRows(nDst, 64, func(lo, hi int) {
		segmentAggRange(edgePtr, srcIdx, src, out, mean, relu, lo, hi)
	})
	return out
}

// segmentAggRange is the fused aggregation's per-row inner loop. Edges
// are consumed eight (then four) at a time so each pass over the output
// row fuses that many source rows — per element the adds stay
// sequential in edge order with a single accumulator, matching the
// separate edge iterations bit for bit (source rows are read-only, so
// duplicate edge endpoints cannot alias the accumulator). The mean
// scale and ReLU mask run as one fused epilogue pass: each element's
// ops (scale, then clamp) are independent across elements, so fusing
// the passes changes no bit.
//
//apt:hotpath
func segmentAggRange(edgePtr []int64, srcIdx []int32, src, out *Matrix, mean, relu bool, lo, hi int) {
	sd, sc := src.Data, src.Cols
	for i := lo; i < hi; i++ {
		or := out.Row(i)
		n := len(or)
		e, e1 := edgePtr[i], edgePtr[i+1]
		for ; e+7 < e1; e += 8 {
			p0 := int(srcIdx[e]) * sc
			p1 := int(srcIdx[e+1]) * sc
			p2 := int(srcIdx[e+2]) * sc
			p3 := int(srcIdx[e+3]) * sc
			p4 := int(srcIdx[e+4]) * sc
			p5 := int(srcIdx[e+5]) * sc
			p6 := int(srcIdx[e+6]) * sc
			p7 := int(srcIdx[e+7]) * sc
			sr0 := sd[p0 : p0+n]
			sr1 := sd[p1 : p1+n]
			sr2 := sd[p2 : p2+n]
			sr3 := sd[p3 : p3+n]
			sr4 := sd[p4 : p4+n]
			sr5 := sd[p5 : p5+n]
			sr6 := sd[p6 : p6+n]
			sr7 := sd[p7 : p7+n]
			for j := range or {
				s := or[j]
				s += sr0[j]
				s += sr1[j]
				s += sr2[j]
				s += sr3[j]
				s += sr4[j]
				s += sr5[j]
				s += sr6[j]
				s += sr7[j]
				or[j] = s
			}
		}
		for ; e+3 < e1; e += 4 {
			p0 := int(srcIdx[e]) * sc
			p1 := int(srcIdx[e+1]) * sc
			p2 := int(srcIdx[e+2]) * sc
			p3 := int(srcIdx[e+3]) * sc
			sr0 := sd[p0 : p0+n]
			sr1 := sd[p1 : p1+n]
			sr2 := sd[p2 : p2+n]
			sr3 := sd[p3 : p3+n]
			for j := range or {
				s := or[j]
				s += sr0[j]
				s += sr1[j]
				s += sr2[j]
				s += sr3[j]
				or[j] = s
			}
		}
		for ; e < e1; e++ {
			p := int(srcIdx[e]) * sc
			sr := sd[p : p+n]
			for j := range or {
				or[j] += sr[j]
			}
		}
		d := edgePtr[i+1] - edgePtr[i]
		switch {
		case mean && d > 1 && relu:
			inv := float32(1.0 / float64(d))
			for j := range or {
				v := or[j] * inv
				if !(v > 0) {
					v = 0
				}
				or[j] = v
			}
		case mean && d > 1:
			inv := float32(1.0 / float64(d))
			for j := range or {
				or[j] *= inv
			}
		case relu:
			for j := range or {
				if !(or[j] > 0) {
					or[j] = 0
				}
			}
		}
	}
}

// segmentAggScatterRange scatters destinations [lo, hi) of the fused
// aggregation backward into dSrc. g is a cols-wide scratch row holding
// the masked+scaled destination gradient, so the mask/scale work is
// done once per destination rather than once per edge.
//
//apt:hotpath
func segmentAggScatterRange(edgePtr []int64, srcIdx []int32, out, dOut, dSrc *Matrix, g []float32, mean, relu bool, lo, hi int) {
	for i := lo; i < hi; i++ {
		e0, e1 := edgePtr[i], edgePtr[i+1]
		if e0 == e1 {
			continue
		}
		dr := dOut.Row(i)
		gr := g[:len(dr)]
		if relu {
			or := out.Row(i)[:len(dr)]
			for j := range gr {
				if or[j] > 0 {
					gr[j] = dr[j]
				} else {
					gr[j] = 0
				}
			}
		} else {
			copy(gr, dr)
		}
		if mean {
			if d := e1 - e0; d > 1 {
				inv := float32(1.0 / float64(d))
				for j := range gr {
					gr[j] *= inv
				}
			}
		}
		// Scatter gr into the source rows four (then two) edges at a
		// time: one load of gr[j] feeds all stores. Distinct rows touch
		// disjoint memory; quads with a duplicated endpoint fall back to
		// the pair logic, and a duplicated pair keeps its two adds
		// sequential ((x+g)+g), matching the unpaired loop bit for bit.
		dd, dc := dSrc.Data, dSrc.Cols
		n := len(gr)
		e := e0
		for ; e+3 < e1; e += 4 {
			r0, r1 := int(srcIdx[e]), int(srcIdx[e+1])
			r2, r3 := int(srcIdx[e+2]), int(srcIdx[e+3])
			if r0 == r1 || r0 == r2 || r0 == r3 || r1 == r2 || r1 == r3 || r2 == r3 {
				break
			}
			sr0 := dd[r0*dc : r0*dc+n]
			sr1 := dd[r1*dc : r1*dc+n]
			sr2 := dd[r2*dc : r2*dc+n]
			sr3 := dd[r3*dc : r3*dc+n]
			for j := range gr {
				g := gr[j]
				sr0[j] += g
				sr1[j] += g
				sr2[j] += g
				sr3[j] += g
			}
		}
		for ; e+1 < e1; e += 2 {
			r0, r1 := int(srcIdx[e]), int(srcIdx[e+1])
			if r0 == r1 {
				sr := dd[r0*dc : r0*dc+n]
				for j := range gr {
					s := sr[j]
					s += gr[j]
					s += gr[j]
					sr[j] = s
				}
				continue
			}
			sr0 := dd[r0*dc : r0*dc+n]
			sr1 := dd[r1*dc : r1*dc+n]
			for j := range gr {
				g := gr[j]
				sr0[j] += g
				sr1[j] += g
			}
		}
		for ; e < e1; e++ {
			r := int(srcIdx[e])
			sr := dd[r*dc : r*dc+n]
			for j := range gr {
				sr[j] += gr[j]
			}
		}
	}
}

// SegmentAggFusedBackward is the backward of SegmentAggFused: it masks
// dOut by the forward output's support (relu), scales by the inverse
// degree (mean), and scatters to source rows — one fused pass instead
// of ReLUBackward + SegmentMeanBackward's two intermediate matrices.
// out is the fused forward's output (only read when relu is set; may be
// nil otherwise). Parallelizes like SegmentSumBackward: per-worker
// partial matrices over destination ranges, merged in worker order.
//
//apt:hotpath
func SegmentAggFusedBackward(edgePtr []int64, srcIdx []int32, out, dOut *Matrix, mean, relu bool, nSrc int) *Matrix {
	dSrc := Get(nSrc, dOut.Cols)
	nDst := dOut.Rows
	workers := scatterWorkers(nDst)
	if nDst < segBackwardMinDst || workers <= 1 {
		g := Get(1, dOut.Cols)
		segmentAggScatterRange(edgePtr, srcIdx, out, dOut, dSrc, g.Data, mean, relu, 0, nDst)
		Put(g)
		return dSrc
	}
	//apt:allow hotalloc per-worker partials on the parallel fan-out; the steady-state bench path is the sequential branch above
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
		//apt:allow hotalloc parallel fan-out goroutines; see the partials allow above
		go func(w, lo, hi int) {
			defer wg.Done()
			g := Get(1, dOut.Cols)
			segmentAggScatterRange(edgePtr, srcIdx, out, dOut, partials[w], g.Data, mean, relu, lo, hi)
			Put(g)
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
