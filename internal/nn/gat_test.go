package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/sample"
	"repro/internal/tensor"
)

// The packed GAT layer promises bit-identity with running its heads one
// at a time. The oracle below is that per-head composition, kept as the
// reference: one projection GEMM per head, setHead packing, the
// attention on whole per-head matrices (the test-local segment kernels
// below), the n = 1 score products on one-column GEMM panels, a fresh
// transposed product per attention-vector gradient, one weight-gradient
// pass per head, and each head's input gradient as a scalar dot
// product.

// setHead copies the [rows, dh] matrix zk into head k's column band of
// the packed [rows, heads·dh] matrix z; getHead is the reverse copy.
func setHead(z *tensor.Matrix, k int, zk *tensor.Matrix) {
	dh := zk.Cols
	for i := 0; i < zk.Rows; i++ {
		copy(z.Row(i)[k*dh:(k+1)*dh], zk.Row(i))
	}
}

func getHead(z *tensor.Matrix, k, dh int) *tensor.Matrix {
	zk := tensor.New(z.Rows, dh)
	for i := 0; i < z.Rows; i++ {
		copy(zk.Row(i), z.Row(i)[k*dh:(k+1)*dh])
	}
	return zk
}

// The oracle's attention kernels on whole per-head matrices: the
// segment kernels GAT ran one head at a time before the all-heads
// tensor.SegmentAttention, sequential.

// oracleSlope is the LeakyReLU slope on the attention logits.
const oracleSlope float32 = 0.2

func leakyReLUSlice(x []float32, slope float32) []float32 {
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

func leakyReLUSliceBackward(x, dOut []float32, slope float32) []float32 {
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

func segmentSoftmax(edgePtr []int64, scores []float32) []float32 {
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

func segmentSoftmaxBackward(edgePtr []int64, probs, dOut []float32) []float32 {
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

// segmentWeightedSum accumulates out[i] += Σ_e w[e]·src[srcIdx[e]] over
// the edges of each destination i, in edge order.
func segmentWeightedSum(out *tensor.Matrix, edgePtr []int64, srcIdx []int32, w []float32, src *tensor.Matrix) {
	for i := 0; i+1 < len(edgePtr); i++ {
		or := out.Row(i)
		for e := edgePtr[i]; e < edgePtr[i+1]; e++ {
			sr := src.Row(int(srcIdx[e]))
			for j := range or {
				or[j] += w[e] * sr[j]
			}
		}
	}
}

// segmentWeightedSumBackward is its backward as the sequential
// scatter: per edge, in order, dSrc's row gains w[e]·dOut[i] and dW[e]
// is the dot of the source and dOut rows from +0.
func segmentWeightedSumBackward(dSrc *tensor.Matrix, dW []float32, edgePtr []int64, srcIdx []int32, w []float32, src, dOut *tensor.Matrix) {
	for i := 0; i+1 < len(edgePtr); i++ {
		dr := dOut.Row(i)
		for e := edgePtr[i]; e < edgePtr[i+1]; e++ {
			s := int(srcIdx[e])
			sr, ds := src.Row(s), dSrc.Row(s)
			var dot float32
			for j := range dr {
				ds[j] += w[e] * dr[j]
				dot += sr[j] * dr[j]
			}
			dW[e] = dot
		}
	}
}

type oracleHead struct {
	z     *tensor.Matrix
	sRaw  []float32
	alpha []float32
}

type gatOracle struct {
	l     *GATLayer
	heads []oracleHead
	out   *tensor.Matrix
}

// project is head k's projection of input columns [lo, hi): a
// plain h (the whole range) or feature rows read through idx.
func (o *gatOracle) project(k int, h *tensor.Matrix, src tensor.FeatSource, idx []int32, lo, hi int) *tensor.Matrix {
	if idx != nil {
		return tensor.GatherMatMulSliceSrc(src, idx, lo, hi, rowShard(o.l.Ws[k].W, lo, hi))
	}
	return tensor.MatMul(h, o.l.Ws[k].W)
}

func (o *gatOracle) forward(blk *sample.Block, h *tensor.Matrix, src tensor.FeatSource, idx []int32) *tensor.Matrix {
	l := o.l
	nDst, dh := blk.NumDst(), l.OutPerHead()
	o.out = tensor.New(nDst, l.OutDim())
	o.heads = make([]oracleHead, l.Heads)
	for k := range o.heads {
		z := o.project(k, h, src, idx, 0, l.InDim())
		er := tensor.MatMul(z, l.ARs[k].W)
		el := tensor.MatMul(tensor.FromData(nDst, dh, z.Data[:nDst*dh]), l.ALs[k].W)
		sRaw := tensor.SDDMMAdd(blk.EdgePtr, blk.SrcIdx, el.Data, er.Data)
		alpha := segmentSoftmax(blk.EdgePtr, leakyReLUSlice(sRaw, oracleSlope))
		ok := tensor.New(nDst, dh)
		segmentWeightedSum(ok, blk.EdgePtr, blk.SrcIdx, alpha, z)
		setHead(o.out, k, ok)
		o.heads[k] = oracleHead{z: z, sRaw: sRaw, alpha: alpha}
	}
	if l.Act == ActReLU {
		tensor.ReLUInPlace(o.out)
	}
	return o.out
}

// backward accumulates every parameter gradient and returns the input
// gradient (nil when h is nil: the gather-fused layer 0 has none).
func (o *gatOracle) backward(blk *sample.Block, h *tensor.Matrix, src tensor.FeatSource, idx []int32, dOut *tensor.Matrix) *tensor.Matrix {
	l := o.l
	nDst, nSrc, dh := blk.NumDst(), blk.NumSrc(), l.OutPerHead()
	var dIn *tensor.Matrix
	if h != nil {
		dIn = tensor.New(nSrc, l.InDim())
	}
	for k, c := range o.heads {
		dO := getHead(dOut, k, dh)
		if l.Act == ActReLU {
			dO = tensor.ReLUBackward(getHead(o.out, k, dh), dO)
		}
		dZ := tensor.New(nSrc, dh)
		dAlpha := make([]float32, len(c.alpha))
		segmentWeightedSumBackward(dZ, dAlpha, blk.EdgePtr, blk.SrcIdx, c.alpha, c.z, dO)
		dS := segmentSoftmaxBackward(blk.EdgePtr, c.alpha, dAlpha)
		dSRaw := leakyReLUSliceBackward(c.sRaw, dS, oracleSlope)
		dEl, dEr := make([]float32, nDst), make([]float32, nSrc)
		for i := 0; i < nDst; i++ {
			for e := blk.EdgePtr[i]; e < blk.EdgePtr[i+1]; e++ {
				dEl[i] += dSRaw[e]
				dEr[blk.SrcIdx[e]] += dSRaw[e]
			}
		}
		gl := tensor.New(dh, 1)
		tensor.TMatMulAcc(gl, tensor.FromData(nDst, dh, c.z.Data[:nDst*dh]), tensor.FromData(nDst, 1, dEl))
		l.ALs[k].G.AddInPlace(gl)
		gr := tensor.New(dh, 1)
		tensor.TMatMulAcc(gr, c.z, tensor.FromData(nSrc, 1, dEr))
		l.ARs[k].G.AddInPlace(gr)
		aL, aR := l.ALs[k].W.Data, l.ARs[k].W.Data
		for i := 0; i < nDst; i++ {
			for j, row := 0, dZ.Row(i); j < dh; j++ {
				row[j] += dEl[i] * aL[j]
			}
		}
		for i := 0; i < nSrc; i++ {
			for j, row := 0, dZ.Row(i); j < dh; j++ {
				row[j] += dEr[i] * aR[j]
			}
		}
		if idx != nil {
			tensor.GatherTMatMulAccSrc(l.Ws[k].G, src, idx, dZ)
		} else {
			tensor.TMatMulAcc(l.Ws[k].G, h, dZ)
		}
		if dIn != nil {
			w := l.Ws[k].W
			dH := tensor.New(nSrc, l.InDim())
			for i := 0; i < nSrc; i++ {
				for c := 0; c < w.Rows; c++ {
					var s float32
					for j := 0; j < dh; j++ {
						s += dZ.At(i, j) * w.At(c, j)
					}
					dH.Set(i, c, s)
				}
			}
			dIn.AddInPlace(dH)
		}
	}
	return dIn
}

func bitsEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v (must be bit-identical)", name, i, got[i], want[i])
		}
	}
}

func gradsEqual(t *testing.T, name string, l *GATLayer, want [][]float32) {
	t.Helper()
	for i, p := range l.Params() {
		bitsEqual(t, name+" "+p.Name+".G", p.G.Data, want[i])
	}
}

func takeGrads(l *GATLayer) [][]float32 {
	var gs [][]float32
	for _, p := range l.Params() {
		gs = append(gs, append([]float32(nil), p.G.Data...))
		p.ZeroGrad()
	}
	return gs
}

// gatTestBlock is a bipartite block of nDst destinations over nSrc
// sources with Src[:nDst] == Dst (self-inclusion, as GAT samples it)
// and up to maxDeg edges per destination.
func gatTestBlock(nDst, nSrc, maxDeg int, rng *graph.RNG) *sample.Block {
	blk := &sample.Block{EdgePtr: make([]int64, nDst+1)}
	for i := 0; i < nSrc; i++ {
		if i < nDst {
			blk.Dst = append(blk.Dst, graph.NodeID(i))
		}
		blk.Src = append(blk.Src, graph.NodeID(i))
	}
	for i := 0; i < nDst; i++ {
		blk.SrcIdx = append(blk.SrcIdx, int32(i))
		for d := rng.Intn(maxDeg); d > 0; d-- {
			blk.SrcIdx = append(blk.SrcIdx, int32(rng.Intn(nSrc)))
		}
		blk.EdgePtr[i+1] = int64(len(blk.SrcIdx))
	}
	return blk
}

// tieredSource puts every third row of feats in an int8 warm tier.
func tieredSource(feats *tensor.Matrix) tensor.FeatSource {
	q := tensor.NewQuant(feats.Rows, feats.Cols)
	mask := make([]uint64, (feats.Rows+63)/64)
	for r := 0; r < feats.Rows; r += 3 {
		q.QuantizeRow(r, feats.Row(r))
		mask[r>>6] |= 1 << (uint(r) & 63)
	}
	return tensor.FeatSource{F: feats, Q: q, QMask: mask}
}

// TestGATPackedMatchesPerHeadOracle compares the packed layer with the
// per-head oracle by math.Float32bits — forward output, input gradient
// and every W/aL/aR gradient — for 1, 2 and 4 heads, on a plain input
// and on a gather-fused int8-tiered feature source, at GOMAXPROCS 1, 2
// and 4 on a block large enough for every parallel path. It also checks
// a column shard of the projection (NFP) and two backward calls into
// the same gradient (a rank serving two requesters under DNP / SNP).
func TestGATPackedMatchesPerHeadOracle(t *testing.T) {
	const in, dh, nDst, nSrc = 40, 8, 301, 903
	rng := graph.NewRNG(17)
	blk := gatTestBlock(nDst, nSrc, 10, rng)
	h := randomFeatures(nSrc, in, rng)
	store := randomFeatures(2000, in, rng)
	feats := tieredSource(store)
	idx := make([]int32, nSrc)
	for i := range idx {
		idx[i] = int32(rng.Intn(store.Rows))
	}
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, heads := range []int{1, 2, 4} {
			for _, act := range []Activation{ActNone, ActReLU} {
				name := fmt.Sprintf("procs%d/heads%d/act%d", procs, heads, act)
				l := NewGATLayer("g", in, dh, heads, act)
				for _, p := range l.Params() {
					p.GlorotInit(rng)
				}
				o := &gatOracle{l: l}
				dOut := randomFeatures(nDst, l.OutDim(), rng)

				// Plain input, with the input gradient.
				want := o.forward(blk, h, tensor.FeatSource{}, nil)
				wantIn := o.backward(blk, h, tensor.FeatSource{}, nil, dOut)
				wantG := takeGrads(l)
				out, ctx := l.Forward(blk, h)
				bitsEqual(t, name+" plain forward", out.Data, want.Data)
				dIn := l.Backward(blk, ctx, dOut)
				bitsEqual(t, name+" plain dIn", dIn.Data, wantIn.Data)
				gradsEqual(t, name+" plain", l, wantG)
				takeGrads(l)

				// Gather-fused through the int8 tier, parameters only.
				want = o.forward(blk, nil, feats, idx)
				o.backward(blk, nil, feats, idx, dOut)
				wantG = takeGrads(l)
				out, ctx = l.ForwardGathered(blk, feats, idx)
				bitsEqual(t, name+" gathered forward", out.Data, want.Data)
				l.BackwardParams(blk, ctx, dOut)
				gradsEqual(t, name+" gathered", l, wantG)
				takeGrads(l)

				// A column shard, its backward run twice into the same G.
				lo, hi := 7, 29
				z := l.ProjectCols(feats, idx, lo, hi)
				wantZ := tensor.New(nSrc, l.OutDim())
				for k := 0; k < heads; k++ {
					setHead(wantZ, k, o.project(k, nil, feats, idx, lo, hi))
				}
				bitsEqual(t, name+" ProjectCols", z.Data, wantZ.Data)
				dZ := randomFeatures(nSrc, l.OutDim(), rng)
				for rep := 0; rep < 2; rep++ {
					for k, w := range l.Ws {
						tensor.GatherTMatMulAccSliceSrc(rowShard(w.G, lo, hi), feats, idx, lo, hi, getHead(dZ, k, dh))
					}
				}
				wantG = takeGrads(l)
				l.ProjectColsBackward(feats, idx, lo, hi, dZ)
				l.ProjectColsBackward(feats, idx, lo, hi, dZ)
				gradsEqual(t, name+" ProjectColsBackward", l, wantG)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// gatBenchLayer builds BenchmarkGATLayer*'s layer and input at the
// shape of the benchmark's GAT workload: in 128, 4 heads × 32, a block
// of ~5 k sources over a 26 k-row feature store with every sixth row
// in the int8 tier.
func gatBenchLayer(b *testing.B) (*GATLayer, *sample.Block, tensor.FeatSource, []int32) {
	b.Helper()
	rng := graph.NewRNG(3)
	blk := gatTestBlock(700, 5000, 11, rng)
	store := randomFeatures(26000, 128, rng)
	q := tensor.NewQuant(store.Rows, store.Cols)
	mask := make([]uint64, (store.Rows+63)/64)
	for r := 0; r < store.Rows; r += 6 {
		q.QuantizeRow(r, store.Row(r))
		mask[r>>6] |= 1 << (uint(r) & 63)
	}
	idx := make([]int32, blk.NumSrc())
	for i := range idx {
		idx[i] = int32(rng.Intn(store.Rows))
	}
	l := NewGATLayer("gat0", 128, 32, 4, ActReLU)
	for _, p := range l.Params() {
		p.GlorotInit(rng)
	}
	return l, blk, tensor.FeatSource{F: store, Q: q, QMask: mask}, idx
}

// BenchmarkGATLayerForward times the gather-fused layer-0 forward of
// the GAT workload (`go test -bench GATLayer -benchmem ./internal/nn`).
func BenchmarkGATLayerForward(b *testing.B) {
	l, blk, feats, idx := gatBenchLayer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, ctx := l.ForwardGathered(blk, feats, idx)
		releaseCtx(ctx)
		tensor.Put(out)
	}
}

// BenchmarkGATLayerBackward times the parameter-only backward of the
// same layer; the forward it consumes runs outside the timer.
func BenchmarkGATLayerBackward(b *testing.B) {
	l, blk, feats, idx := gatBenchLayer(b)
	dOut := randomFeatures(blk.NumDst(), l.OutDim(), graph.NewRNG(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		out, ctx := l.ForwardGathered(blk, feats, idx)
		b.StartTimer()
		l.BackwardParams(blk, ctx, dOut)
		tensor.Put(out)
	}
}
