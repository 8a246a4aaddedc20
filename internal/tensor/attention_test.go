package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
)

// The attention kernels promise the bits of the per-head composition
// GAT ran before they existed: per head two row-dots, the score pass,
// LeakyReLU, the segment softmax and the weighted sum forward; the
// weighted sum's gather backward, the softmax and LeakyReLU backward, a
// serial dEl/dEr pass, an n = 1 weight-gradient product per attention
// vector and two rank-1 passes backward. That composition is kept here,
// verbatim, as the reference.

func refLeakyReLUSlice(x []float32, slope float32) []float32 {
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

func refLeakyReLUSliceBackward(x, dOut []float32, slope float32) []float32 {
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

func refSegmentSoftmax(edgePtr []int64, scores []float32) []float32 {
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

func refSegmentSoftmaxBackward(edgePtr []int64, probs, dOut []float32) []float32 {
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

func refSegmentWeightedSum(out *Matrix, edgePtr []int64, srcIdx []int32, w []float32, src *Matrix, lo, hi int) {
	for i := 0; i+1 < len(edgePtr); i++ {
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

func refSegmentWeightedSumBackward(dSrc *Matrix, dW []float32, edgePtr []int64, srcIdx []int32, w []float32, src, dOut *Matrix, lo, hi int) {
	t := getSrcMajor(edgePtr, srcIdx, src.Rows)
	for s := 0; s < src.Rows; s++ {
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
	putSrcMajor(t)
}

// refAttention is the per-head forward: it returns the output and per
// head the pre-LeakyReLU logits and the weights.
func refAttention(edgePtr []int64, srcIdx []int32, z, a *Matrix, heads int, relu bool) (*Matrix, [][]float32, [][]float32) {
	nDst, nSrc, dh := len(edgePtr)-1, z.Rows, z.Cols/heads
	out := Get(nDst, z.Cols)
	sRaw, alpha := make([][]float32, heads), make([][]float32, heads)
	e := Get(1, nDst+nSrc)
	el, er := e.Data[:nDst], e.Data[nDst:]
	for k := 0; k < heads; k++ {
		lo, hi := k*dh, (k+1)*dh
		matVecSlice(el, z, 0, lo, hi, a.Row(0)[lo:hi])
		matVecSlice(er, z, 0, lo, hi, a.Row(1)[lo:hi])
		sRaw[k] = SDDMMAdd(edgePtr, srcIdx, el, er)
		alpha[k] = refSegmentSoftmax(edgePtr, refLeakyReLUSlice(sRaw[k], 0.2))
		refSegmentWeightedSum(out, edgePtr, srcIdx, alpha[k], z, lo, hi)
	}
	Put(e)
	if relu {
		ReLUInPlace(out)
	}
	return out, sRaw, alpha
}

// refAttentionBackward is the per-head backward: the gradient of z and
// the attention vectors' gradients added onto dA.
func refAttentionBackward(edgePtr []int64, srcIdx []int32, z, a *Matrix, sRaw, alpha [][]float32, out, dOut *Matrix, relu bool, dA *Matrix) *Matrix {
	nDst, nSrc, heads := len(edgePtr)-1, z.Rows, len(sRaw)
	dh := z.Cols / heads
	dO := dOut
	if relu {
		dO = ReLUBackward(out, dOut)
	}
	dZ := Get(nSrc, z.Cols)
	zdst := FromData(nDst, z.Cols, z.Data[:nDst*z.Cols])
	dAlpha := make([]float32, len(srcIdx))
	dE := Get(1, nDst+nSrc)
	dEl, dEr := dE.Data[:nDst], dE.Data[nDst:]
	for k := 0; k < heads; k++ {
		lo, hi := k*dh, (k+1)*dh
		refSegmentWeightedSumBackward(dZ, dAlpha, edgePtr, srcIdx, alpha[k], z, dO, lo, hi)
		dS := refSegmentSoftmaxBackward(edgePtr, alpha[k], dAlpha)
		dSRaw := refLeakyReLUSliceBackward(sRaw[k], dS, 0.2)
		dE.Zero()
		for i := 0; i < nDst; i++ {
			for e := edgePtr[i]; e < edgePtr[i+1]; e++ {
				dEl[i] += dSRaw[e]
				dEr[srcIdx[e]] += dSRaw[e]
			}
		}
		refAddAttnGrad(dA.Row(0)[lo:hi], zdst, lo, hi, dEl)
		refAddAttnGrad(dA.Row(1)[lo:hi], z, lo, hi, dEr)
		aL, aR := a.Row(0)[lo:hi], a.Row(1)[lo:hi]
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
		Put(dO)
	}
	Put(dE)
	return dZ
}

// refAddAttnGrad adds z[:, lo:hi]ᵀ · d, formed from +0, onto g.
func refAddAttnGrad(g []float32, z *Matrix, lo, hi int, d []float32) {
	t := Get(hi-lo, 1)
	gatherTMatMulAcc(t, gemmA{src: z, lo: lo, hi: hi}, FromData(len(d), 1, d))
	FromData(hi-lo, 1, g).AddInPlace(t)
	Put(t)
}

// attnCase is one block and its operands.
type attnCase struct {
	edgePtr    []int64
	srcIdx     []int32
	z, a, dOut *Matrix
	heads      int
}

// newAttnCase draws an edgeCaseCSR block (empty segments, repeated and
// untouched sources) with operands carrying −0 and the other specials.
func newAttnCase(rng *graph.RNG, nDst, nSrc, maxDeg, heads, dh int) attnCase {
	edgePtr, srcIdx := edgeCaseCSR(nDst, nSrc, maxDeg, rng)
	return attnCase{
		edgePtr: edgePtr, srcIdx: srcIdx, heads: heads,
		z:    simdMatrix(rng, nSrc, heads*dh, 0),
		a:    simdMatrix(rng, 2, heads*dh, 0),
		dOut: simdMatrix(rng, nDst, heads*dh, 0),
	}
}

// check runs both kernels and compares every output with the per-head
// reference by math.Float32bits.
func (c attnCase) check(t testing.TB, name string, relu bool) {
	t.Helper()
	wantOut, wantS, wantA := refAttention(c.edgePtr, c.srcIdx, c.z, c.a, c.heads, relu)
	wantDA := New(2, c.z.Cols)
	wantDZ := refAttentionBackward(c.edgePtr, c.srcIdx, c.z, c.a, wantS, wantA, wantOut, c.dOut, relu, wantDA)

	out, scores, alpha := SegmentAttention(c.edgePtr, c.srcIdx, c.z, c.a, c.heads, relu)
	bitsEqual(t, name+" out", out.Data, wantOut.Data)
	for k := 0; k < c.heads; k++ {
		for e := range c.srcIdx {
			if math.Float32bits(scores.At(e, k)) != math.Float32bits(wantS[k][e]) ||
				math.Float32bits(alpha.At(e, k)) != math.Float32bits(wantA[k][e]) {
				t.Fatalf("%s: edge %d head %d: score %v weight %v, want %v %v", name, e, k,
					scores.At(e, k), alpha.At(e, k), wantS[k][e], wantA[k][e])
			}
		}
	}
	dZ, dA := SegmentAttentionBackward(c.edgePtr, c.srcIdx, c.z, c.a, scores, alpha, out, c.dOut, relu)
	bitsEqual(t, name+" dZ", dZ.Data, wantDZ.Data)
	bitsEqual(t, name+" dA", dA.Data, wantDA.Data)
	for _, m := range []*Matrix{out, scores, alpha, dZ, dA, wantOut, wantDZ} {
		Put(m)
	}
}

// TestSegmentAttentionMatchesPerHeadReference holds both attention
// kernels to the per-head composition bit for bit, for 1, 2 and 4
// heads, with and without ReLU, at every worker count, on blocks small
// enough to run inline and large enough to split. Head widths 5 and 8
// run the Go loops alone; 16 and 32 (the benchmark's GAT is 4 × 32)
// run the AVX-512 row accumulation where the CPU has it.
func TestSegmentAttentionMatchesPerHeadReference(t *testing.T) {
	rng := graph.NewRNG(43)
	var cases []attnCase
	for _, heads := range []int{1, 2, 4} {
		cases = append(cases,
			newAttnCase(rng, 40, 90, 6, heads, 5),
			newAttnCase(rng, 700, 1300, 10, heads, 8))
	}
	for _, heads := range []int{1, 2, 4} {
		cases = append(cases,
			newAttnCase(rng, 40, 90, 6, heads, 16),
			newAttnCase(rng, 300, 520, 10, heads, 32))
	}
	forEachProcs(t, func(t *testing.T) {
		for i, c := range cases {
			for _, relu := range []bool{false, true} {
				c.check(t, fmt.Sprintf("case %d heads %d relu %v", i, c.heads, relu), relu)
			}
		}
	})
}

// degenerateBlocks are the blocks with nothing to aggregate: no
// destination over no source and over seven sources, and destinations
// whose every segment is empty.
var degenerateBlocks = []struct {
	edgePtr []int64
	nSrc    int
}{
	{[]int64{0}, 0},
	{[]int64{0}, 7},
	{[]int64{0, 0, 0, 0}, 7},
}

// TestSegmentAttentionDegenerateBlocks runs both attention kernels, at
// four heads of 8 (32 columns), on the edge-less blocks a sampled
// mini-batch can produce: every output and gradient must be +0 and
// match the per-head reference bit for bit.
func TestSegmentAttentionDegenerateBlocks(t *testing.T) {
	rng := graph.NewRNG(45)
	for _, b := range degenerateBlocks {
		nDst := len(b.edgePtr) - 1
		c := attnCase{
			edgePtr: b.edgePtr, srcIdx: []int32{}, heads: 4,
			z:    simdMatrix(rng, b.nSrc, 32, 0),
			a:    simdMatrix(rng, 2, 32, 0),
			dOut: simdMatrix(rng, nDst, 32, 0),
		}
		for _, relu := range []bool{false, true} {
			name := fmt.Sprintf("edgePtr %v nSrc %d relu %v", b.edgePtr, b.nSrc, relu)
			c.check(t, name, relu)
			out, scores, alpha := SegmentAttention(c.edgePtr, c.srcIdx, c.z, c.a, c.heads, relu)
			dZ, dA := SegmentAttentionBackward(c.edgePtr, c.srcIdx, c.z, c.a, scores, alpha, out, c.dOut, relu)
			for _, m := range []*Matrix{out, dZ, dA} {
				bitsEqual(t, name+" zero", m.Data, make([]float32, len(m.Data)))
			}
			if dZ.Rows != b.nSrc || dA.Rows != 2 || out.Rows != nDst {
				t.Fatalf("%s: shapes out %dx%d dZ %dx%d dA %dx%d", name, out.Rows, out.Cols, dZ.Rows, dZ.Cols, dA.Rows, dA.Cols)
			}
		}
	}
}

// checkAttentionGradNumerical checks the named gradients of the
// attention backward ("z", "a" or both) against central differences of
// L = Σ out ⊙ dOut on the given block.
func checkAttentionGradNumerical(t *testing.T, rng *graph.RNG, edgePtr []int64, srcIdx []int32, nSrc, heads, dh int, relu bool, params ...string) {
	t.Helper()
	z := randomMatrix(nSrc, heads*dh, rng)
	a := randomMatrix(2, heads*dh, rng)
	dOut := randomMatrix(len(edgePtr)-1, heads*dh, rng)
	loss := func() float64 {
		out, s, al := SegmentAttention(edgePtr, srcIdx, z, a, heads, relu)
		l := inner(out, dOut)
		Put(out)
		Put(s)
		Put(al)
		return l
	}
	out, s, al := SegmentAttention(edgePtr, srcIdx, z, a, heads, relu)
	dZ, dA := SegmentAttentionBackward(edgePtr, srcIdx, z, a, s, al, out, dOut, relu)
	grads := map[string][2]*Matrix{"z": {z, dZ}, "a": {a, dA}}
	for _, name := range params {
		param, grd := grads[name][0], grads[name][1]
		for i, orig := range param.Data {
			const eps = 1e-3
			param.Data[i] = orig + eps
			up := loss()
			param.Data[i] = orig - eps
			down := loss()
			param.Data[i] = orig
			num := (up - down) / (2 * eps)
			if got := float64(grd.Data[i]); math.Abs(num-got) > 1e-2*(1+math.Abs(num)) {
				t.Errorf("d%s[%d] = %v, numerical %v", name, i, got, num)
			}
		}
	}
}

// TestSegmentAttentionGradientNumerical checks the backward against
// central differences for every element of z and of both attention
// vectors, on a two-head block with an empty segment and a repeated
// source.
func TestSegmentAttentionGradientNumerical(t *testing.T) {
	checkAttentionGradNumerical(t, graph.NewRNG(44),
		[]int64{0, 3, 3, 5, 8}, []int32{0, 4, 4, 2, 1, 5, 3, 2}, 6, 2, 3, false, "z", "a")
}

// TestSegmentSoftmaxBackwardNumerical checks the segment softmax
// backward, now inside the attention backward: the attention vectors
// reach the loss only through the scores, LeakyReLU and the softmax, so
// their gradient is checked against central differences on a one-head
// block with an empty segment.
func TestSegmentSoftmaxBackwardNumerical(t *testing.T) {
	checkAttentionGradNumerical(t, graph.NewRNG(7), tEdgePtr, tSrcIdx, 4, 1, 2, false, "a")
}

// TestSegmentWeightedSumBackwardNumerical checks the weighted sum's
// gather backward, now inside the attention backward, through the
// gradient of the source rows it gathers from, with the ReLU epilogue
// on, on a one-head block with an empty segment and a repeated source.
func TestSegmentWeightedSumBackwardNumerical(t *testing.T) {
	checkAttentionGradNumerical(t, graph.NewRNG(8), tEdgePtr, tSrcIdx, 4, 1, 2, true, "z")
}
