package tensor

import (
	"math"
	"runtime"
)

// Gather- and epilogue-fused segment kernels. These collapse the
// unfused chains the layers used to run as separate full passes —
// SegmentSum/Mean → normalize → activation clone on the forward into
// one pass per output row while it is cache-hot, and ReLU mask → mean
// scale on the backward into one pass ahead of the sum to source rows.
// Per output element the edge terms still accumulate in increasing edge
// order with a single accumulator, and the normalization/activation
// apply only after a row's sum is complete, so results are
// bit-identical to the unfused composition.

// ReLUInPlace applies max(0, x) elementwise in place. Negative zero and
// NaN map to +0, matching ReLU's zero-initialized copy semantics. It
// masks by positiveMask rather than branching on the sign, which is
// random on a layer's pre-activations.
//
//apt:hotpath
func ReLUInPlace(x *Matrix) {
	maskPositive(x.Data, x.Data, x.Data)
}

// maskPositive writes x[c] into dst[c] where by[c] > 0 and +0 elsewhere:
// ReLU when x is by, its backward when x is the gradient and by the
// output.
//
//apt:hotpath
func maskPositive(dst, x, by []float32) {
	for c, v := range by {
		dst[c] = math.Float32frombits(math.Float32bits(x[c]) & positiveMask(v))
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
// row, so the result is bit-identical to the per-edge sum followed by
// the normalization and ReLU as separate passes. With both off it is
// SegmentSum, which calls it.
//
//apt:hotpath
func SegmentAggFused(edgePtr []int64, srcIdx []int32, src *Matrix, mean, relu bool) *Matrix {
	out := Get(len(edgePtr)-1, src.Cols)
	segmentAgg(edgePtr, srcIdx, src, out, mean, relu)
	return out
}

// segmentAgg runs segmentAggRange over all of out's rows, split across
// workers on large blocks: every worker owns whole output rows.
//
//apt:hotpath
func segmentAgg(edgePtr []int64, srcIdx []int32, src, out *Matrix, mean, relu bool) {
	nDst := len(edgePtr) - 1
	if runtime.GOMAXPROCS(0) == 1 || nDst < 128 {
		segmentAggRange(edgePtr, srcIdx, src, out, mean, relu, 0, nDst)
		return
	}
	//apt:allow hotalloc parallel fan-out body; the steady-state bench path is the sequential branch above
	parallelRows(nDst, 64, 1, func(lo, hi int) {
		segmentAggRange(edgePtr, srcIdx, src, out, mean, relu, lo, hi)
	})
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

// SegmentAggFusedBackward is the backward of SegmentAggFused: it masks
// dOut by the forward output's support (relu) and scales it by the
// inverse degree (mean) in one pass over the destinations, then gathers
// each source row's sum of its edges' rows with the forward's own
// segmentAggRange, over the block's source-major order. out is the
// fused forward's output (only read when relu is set; may be nil
// otherwise). Every source row adds its terms from +0 in edge order —
// the sequential scatter's sum — and workers own whole source rows, so
// the bits do not depend on GOMAXPROCS.
//
//apt:hotpath
func SegmentAggFusedBackward(edgePtr []int64, srcIdx []int32, out, dOut *Matrix, mean, relu bool, nSrc int) *Matrix {
	g := dOut
	if mean || relu {
		g = Get(dOut.Rows, dOut.Cols)
		for i := 0; i < dOut.Rows; i++ {
			d := edgePtr[i+1] - edgePtr[i]
			if d == 0 {
				continue
			}
			dr, gr := dOut.Row(i), g.Row(i)
			if relu {
				maskPositive(gr, dr, out.Row(i)[:len(dr)])
			} else {
				copy(gr, dr)
			}
			if mean && d > 1 {
				inv := float32(1.0 / float64(d))
				for j := range gr {
					gr[j] *= inv
				}
			}
		}
	}
	t := getSrcMajor(edgePtr, srcIdx, nSrc)
	dSrc := Get(nSrc, dOut.Cols)
	segmentAgg(t.ptr, t.dst, g, dSrc, false, false)
	putSrcMajor(t)
	if g != dOut {
		Put(g)
	}
	return dSrc
}

// positiveMask returns all ones when v > 0 and zero otherwise (NaN
// included), without a branch: a ReLU output's support is as random as
// the signs before it, so a branch on it is mispredicted half the time.
// As an int32, v's bits x are in (0, +Inf's bits] exactly when v > 0,
// which is when both -x and x-(+Inf's bits)-1 are negative.
func positiveMask(v float32) uint32 {
	x := int32(math.Float32bits(v))
	return uint32((-x & (x - 0x7f800001)) >> 31)
}
