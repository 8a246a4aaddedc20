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

// layer0Rows, layer0In and layer0Out are the training workloads'
// layer-0 shape: one batch's ~2 300 distinct source rows of width 128
// projected to 32 columns. layer0StoreRows is PS 0.2's feature store
// (44 000 × 128, 22.5 MB, far past L2), layer0ResidentRows
// a 1 000-row store that stays in L2. The gap between a benchmark and
// its …Resident twin is what the kernel loses to stalls on gathered
// rows.
const (
	layer0Rows, layer0In, layer0Out = 2300, 128, 32
	layer0StoreRows                 = 44000
	layer0ResidentRows              = 1000
)

// reportGFLOPs reports a kernel's arithmetic rate from its madds
// multiply-adds per iteration, two flops each.
func reportGFLOPs(b *testing.B, madds int) {
	b.ReportMetric(2*float64(madds)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkGatherMatMulLayer0 is the training workloads' layer-0
// projection at its real shape: the gathered rows of PS 0.2's feature
// store times a 128 × 32 weight — the shape the four-row panel kernel
// is sized on.
func BenchmarkGatherMatMulLayer0(b *testing.B) { benchGatherMatMulLayer0(b, layer0StoreRows) }

// BenchmarkGatherMatMulLayer0Resident gathers as many rows from a
// cache-resident store.
func BenchmarkGatherMatMulLayer0Resident(b *testing.B) {
	benchGatherMatMulLayer0(b, layer0ResidentRows)
}

func benchGatherMatMulLayer0(b *testing.B, srcN int) {
	rng := graph.NewRNG(8)
	feats := benchRandMat(rng, srcN, layer0In)
	idx := benchIdx(layer0Rows, srcN, rng)
	w := benchRandMat(rng, layer0In, layer0Out)
	b.SetBytes(int64(layer0Rows * layer0In * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := GatherMatMulSrc(FS(feats), idx, w)
		Put(m)
	}
	reportGFLOPs(b, layer0Rows*layer0In*layer0Out)
}

// BenchmarkGatherTMatMulAccLayer0 is the same layer's weight gradient,
// dW += X[idx]ᵀ · dZ: the gathered rows of the feature store against a
// 2 300 × 32 dZ, into a 128 × 32 dW — the shape the eight-row tile
// kernel is sized on.
func BenchmarkGatherTMatMulAccLayer0(b *testing.B) {
	benchGatherTMatMulAccLayer0(b, layer0StoreRows)
}

// BenchmarkGatherTMatMulAccLayer0Resident gathers as many rows from a
// cache-resident store.
func BenchmarkGatherTMatMulAccLayer0Resident(b *testing.B) {
	benchGatherTMatMulAccLayer0(b, layer0ResidentRows)
}

func benchGatherTMatMulAccLayer0(b *testing.B, srcN int) {
	rng := graph.NewRNG(8)
	feats := benchRandMat(rng, srcN, layer0In)
	idx := benchIdx(layer0Rows, srcN, rng)
	dz := benchRandMat(rng, layer0Rows, layer0Out)
	dst := New(layer0In, layer0Out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherTMatMulAccSrc(dst, FS(feats), idx, dz)
	}
	reportGFLOPs(b, layer0Rows*layer0In*layer0Out)
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

// --- GAT attention, all heads (the GAT workload's 4 × 32) ---

// benchAttention is a layer-0-sized attention block: 700 destinations
// of degree 6 over 3 000 sources, four heads of 32 columns.
func benchAttention() (edgePtr []int64, srcIdx []int32, z, a, dOut *Matrix) {
	rng := graph.NewRNG(8)
	edgePtr, srcIdx = benchSegments(700, 6, 3000, rng)
	return edgePtr, srcIdx, benchRandMat(rng, 3000, 128), benchRandMat(rng, 2, 128), benchRandMat(rng, 700, 128)
}

func BenchmarkSegmentAttention(b *testing.B) {
	edgePtr, srcIdx, z, a, _ := benchAttention()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, scores, alpha := SegmentAttention(edgePtr, srcIdx, z, a, 4, true)
		Put(out)
		Put(scores)
		Put(alpha)
	}
}

func BenchmarkSegmentAttentionBackward(b *testing.B) {
	edgePtr, srcIdx, z, a, dOut := benchAttention()
	out, scores, alpha := SegmentAttention(edgePtr, srcIdx, z, a, 4, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dZ, dA := SegmentAttentionBackward(edgePtr, srcIdx, z, a, scores, alpha, out, dOut, true)
		Put(dZ)
		Put(dA)
	}
}
