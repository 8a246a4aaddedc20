package tensor

import (
	"testing"

	"repro/internal/graph"
)

// Kernel micro-benchmarks (`go test -bench . ./internal/tensor`).
// Shapes mirror the real-mode training hot path: a few thousand
// gathered source rows, feature dims in the dozens to low hundreds, and
// power-law segment structure from neighbor sampling.
//
// The *Unfused / *ThenMatMul variants reproduce the compositions the
// fused kernels replaced, so each pair measures one fusion in
// isolation.

const (
	benchRows = 4096 // gathered source rows per mini-batch
	benchIn   = 64   // input feature dim
	benchOut  = 64   // hidden dim
	benchSrcN = 20000
)

func benchRandMat(rng *graph.RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat32()
	}
	return m
}

// benchSegments builds a sampled-neighborhood CSR: nDst segments of
// `deg` edges each, sources drawn from [0, nSrc).
func benchSegments(nDst, deg, nSrc int, rng *graph.RNG) ([]int64, []int32) {
	edgePtr := make([]int64, nDst+1)
	srcIdx := make([]int32, nDst*deg)
	for i := 0; i < nDst; i++ {
		edgePtr[i+1] = edgePtr[i] + int64(deg)
		for e := 0; e < deg; e++ {
			srcIdx[i*deg+e] = int32(rng.Intn(nSrc))
		}
	}
	return edgePtr, srcIdx
}

func benchIdx(n, srcN int, rng *graph.RNG) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(rng.Intn(srcN))
	}
	return idx
}

// --- tiled GEMM ---

func BenchmarkMatMulDense(b *testing.B) {
	rng := graph.NewRNG(1)
	a := benchRandMat(rng, benchRows, benchIn)
	w := benchRandMat(rng, benchIn, benchOut)
	b.SetBytes(int64(benchRows * benchIn * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := MatMul(a, w)
		Put(m)
	}
}

// BenchmarkMatMulWide runs an output one full column block (gemmNB)
// wide.
func BenchmarkMatMulWide(b *testing.B) {
	rng := graph.NewRNG(2)
	a := benchRandMat(rng, benchRows, 128)
	w := benchRandMat(rng, 128, 256)
	b.SetBytes(int64(benchRows * 128 * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := MatMul(a, w)
		Put(m)
	}
}

// --- gather-fused projection ---

func BenchmarkGatherMatMul(b *testing.B) {
	rng := graph.NewRNG(4)
	feats := benchRandMat(rng, benchSrcN, benchIn)
	idx := benchIdx(benchRows, benchSrcN, rng)
	w := benchRandMat(rng, benchIn, benchOut)
	b.SetBytes(int64(benchRows * benchIn * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := GatherMatMulSrc(FS(feats), idx, w)
		Put(m)
	}
}

// BenchmarkGatherMatMulLayer0 is the training workloads' layer-0
// projection at its real shape: one batch's ~2 300 distinct source rows
// gathered out of PS 0.2's 44 000 × 128 feature matrix, times a
// 128 × 32 weight — the shape the four-row panel kernel is sized on.
func BenchmarkGatherMatMulLayer0(b *testing.B) {
	const rows, srcN, in, out = 2300, 44000, 128, 32
	rng := graph.NewRNG(8)
	feats := benchRandMat(rng, srcN, in)
	idx := benchIdx(rows, srcN, rng)
	w := benchRandMat(rng, in, out)
	b.SetBytes(int64(rows * in * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := GatherMatMulSrc(FS(feats), idx, w)
		Put(m)
	}
}

// BenchmarkGatherTMatMulAccLayer0 is the same layer's weight gradient,
// dW += X[idx]ᵀ · dZ: the ~2 300 gathered rows of the 44 000 × 128
// feature matrix against a 2 300 × 32 dZ, into a 128 × 32 dW — the
// shape the eight-row tile kernel is sized on.
func BenchmarkGatherTMatMulAccLayer0(b *testing.B) {
	const rows, srcN, in, out = 2300, 44000, 128, 32
	rng := graph.NewRNG(8)
	feats := benchRandMat(rng, srcN, in)
	idx := benchIdx(rows, srcN, rng)
	dz := benchRandMat(rng, rows, out)
	dst := New(in, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherTMatMulAccSrc(dst, FS(feats), idx, dz)
	}
}

// BenchmarkTMatMulAccLayer1 is layer 1's weight gradient, dW += hᵀ · dZ:
// 700 post-ReLU rows of width 32, half of them zeros, against a
// 700 × 32 dZ — the zero-skipping case.
func BenchmarkTMatMulAccLayer1(b *testing.B) {
	const rows, in, out = 700, 32, 32
	rng := graph.NewRNG(9)
	h := benchRandMat(rng, rows, in)
	sparsify(h, 0.5, rng)
	dz := benchRandMat(rng, rows, out)
	dst := New(in, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TMatMulAcc(dst, h, dz)
	}
}

// BenchmarkGatherThenMatMul is the old hot path: materialize the
// gathered rows, then multiply the copy.
func BenchmarkGatherThenMatMul(b *testing.B) {
	rng := graph.NewRNG(4)
	feats := benchRandMat(rng, benchSrcN, benchIn)
	idx := benchIdx(benchRows, benchSrcN, rng)
	w := benchRandMat(rng, benchIn, benchOut)
	b.SetBytes(int64(benchRows * benchIn * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := Gather(feats, idx)
		m := MatMul(x, w)
		Put(x)
		Put(m)
	}
}

// --- int8 warm-tier variants (dequant fused into the gather) ---

// benchFeatSource admits every other row of feats into an int8 warm
// tier, mirroring a half-warm tiered cache: the kernels see the worst
// case for tier dispatch (fp32/int8 alternating per gathered row).
func benchFeatSource(feats *Matrix) FeatSource {
	q := NewQuant(feats.Rows, feats.Cols)
	mask := make([]uint64, (feats.Rows+63)/64)
	for r := 0; r < feats.Rows; r += 2 {
		q.QuantizeRow(r, feats.Row(r))
		mask[r>>6] |= 1 << (uint(r) & 63)
	}
	return FeatSource{F: feats, Q: q, QMask: mask}
}

// BenchmarkGatherMatMulQuant is BenchmarkGatherMatMul over a half-warm
// tiered source: the dequant cost rides inside the gather-GEMM rather
// than a separate materialization pass. Must stay 0 allocs/op (the
// dequant scratch is pooled).
func BenchmarkGatherMatMulQuant(b *testing.B) {
	rng := graph.NewRNG(4)
	feats := benchRandMat(rng, benchSrcN, benchIn)
	src := benchFeatSource(feats)
	idx := benchIdx(benchRows, benchSrcN, rng)
	w := benchRandMat(rng, benchIn, benchOut)
	b.SetBytes(int64(benchRows * benchIn * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := GatherMatMulSrc(src, idx, w)
		Put(m)
	}
}

// BenchmarkGatherTMatMulAccQuant is the layer-0 weight gradient read
// through the tiered source.
func BenchmarkGatherTMatMulAccQuant(b *testing.B) {
	rng := graph.NewRNG(5)
	feats := benchRandMat(rng, benchSrcN, benchIn)
	src := benchFeatSource(feats)
	idx := benchIdx(benchRows, benchSrcN, rng)
	dz := benchRandMat(rng, benchRows, benchOut)
	sparsify(dz, 0.5, rng)
	dst := New(benchIn, benchOut)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherTMatMulAccSrc(dst, src, idx, dz)
	}
}

// --- transposed gradient accumulation ---

func BenchmarkTMatMulAcc(b *testing.B) {
	rng := graph.NewRNG(5)
	a := benchRandMat(rng, benchRows, benchIn)
	dz := benchRandMat(rng, benchRows, benchOut)
	sparsify(dz, 0.5, rng) // ReLU-masked gradients
	dst := New(benchIn, benchOut)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TMatMulAcc(dst, a, dz)
	}
}

func BenchmarkGatherTMatMulAcc(b *testing.B) {
	rng := graph.NewRNG(5)
	feats := benchRandMat(rng, benchSrcN, benchIn)
	idx := benchIdx(benchRows, benchSrcN, rng)
	dz := benchRandMat(rng, benchRows, benchOut)
	sparsify(dz, 0.5, rng)
	dst := New(benchIn, benchOut)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherTMatMulAccSrc(dst, FS(feats), idx, dz)
	}
}

// --- fused segment aggregation (mean + ReLU in one pass) ---

func BenchmarkSegmentAggFused(b *testing.B) {
	rng := graph.NewRNG(6)
	edgePtr, srcIdx := benchSegments(512, 10, benchRows, rng)
	z := benchRandMat(rng, benchRows, benchOut)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := SegmentAggFused(edgePtr, srcIdx, z, true, true)
		Put(m)
	}
}

// BenchmarkSegmentAggUnfused is the replaced composition: segment mean
// into one matrix, activation into a second.
func BenchmarkSegmentAggUnfused(b *testing.B) {
	rng := graph.NewRNG(6)
	edgePtr, srcIdx := benchSegments(512, 10, benchRows, rng)
	z := benchRandMat(rng, benchRows, benchOut)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := SegmentMean(edgePtr, srcIdx, z)
		out := ReLU(s)
		Put(s)
		Put(out)
	}
}

func BenchmarkSegmentAggFusedBackward(b *testing.B) {
	rng := graph.NewRNG(7)
	edgePtr, srcIdx := benchSegments(512, 10, benchRows, rng)
	z := benchRandMat(rng, benchRows, benchOut)
	out := SegmentAggFused(edgePtr, srcIdx, z, true, true)
	dOut := benchRandMat(rng, 512, benchOut)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dz := SegmentAggFusedBackward(edgePtr, srcIdx, out, dOut, true, true, benchRows)
		Put(dz)
	}
}
