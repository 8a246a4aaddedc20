package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// The tiled/fused kernels promise bit-identity with their naive
// unfused counterparts (same per-element float32 summation order), so
// these tests assert EXACT equality, not tolerances.

// naiveMatMulF32 is the reference the blocked kernel must match
// bitwise: per output element, float32 terms added in increasing k
// order with a single accumulator.
func naiveMatMulF32(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// naiveTMatMulAccF32 mirrors TMatMulAcc's contract: rank-1 updates in
// increasing k order, zero a-entries skipped.
func naiveTMatMulAccF32(dst, a, b *Matrix) {
	for kk := 0; kk < a.Rows; kk++ {
		for i := 0; i < a.Cols; i++ {
			av := a.At(kk, i)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				dst.Data[i*dst.Cols+j] += av * b.At(kk, j)
			}
		}
	}
}

func matricesExact(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v (must be bit-identical)",
				name, i, got.Data[i], want.Data[i])
		}
	}
}

// sparsify zeroes a fraction of entries, mimicking post-ReLU
// activations.
func sparsify(m *Matrix, frac float64, rng *graph.RNG) {
	for i := range m.Data {
		if rng.Float64() < frac {
			m.Data[i] = 0
		}
	}
}

func TestTiledMatMulBitIdenticalToNaive(t *testing.T) {
	rng := graph.NewRNG(31)
	// Shapes chosen to cross every blocking boundary: single k-panel,
	// multiple k-panels (k > gemmKC), column blocking (n > gemmNB,
	// short and tall row bands), and ragged remainders.
	for _, dims := range [][3]int{
		{1, 1, 1}, {3, 4, 5}, {17, 9, 23}, {64, 32, 48},
		{40, gemmKC + 37, gemmNB + 61}, {37, 2 * gemmKC, gemmNB + 1},
		{100, 7, 3}, {5, 300, 300},
	} {
		a := randomMatrix(dims[0], dims[1], rng)
		b := randomMatrix(dims[1], dims[2], rng)
		got := MatMul(a, b)
		matricesExact(t, "MatMul", got, naiveMatMulF32(a, b))
		Put(got)
	}
}

func TestSparseMatMulBitIdenticalToDense(t *testing.T) {
	// Rows of mostly zeros (post-ReLU activations) take the same tiled
	// kernel as dense ones and must equal the naive triple loop: mix
	// dense and ~90%-zero rows in one matrix, across two k-panels.
	rng := graph.NewRNG(32)
	a := randomMatrix(60, 2*gemmKC, rng)
	for i := 0; i < a.Rows; i += 2 {
		row := a.Row(i)
		for j := range row {
			if rng.Float64() < 0.9 {
				row[j] = 0
			}
		}
	}
	b := randomMatrix(a.Cols, 33, rng)
	got := MatMul(a, b)
	matricesExact(t, "sparse MatMul", got, naiveMatMulF32(a, b))
	Put(got)
}

func TestGatherMatMulBitIdenticalToGatherThenMatMul(t *testing.T) {
	rng := graph.NewRNG(34)
	src := randomMatrix(40, 24, rng)
	b := randomMatrix(24, 18, rng)
	idx := make([]int32, 77)
	for i := range idx {
		idx[i] = int32(rng.Intn(src.Rows))
	}
	gathered := Gather(src, idx)
	want := MatMul(gathered, b)
	got := GatherMatMulSrc(FS(src), idx, b)
	matricesExact(t, "GatherMatMul", got, want)
	Put(got)
	Put(want)

	// Slice form: columns [lo, hi) of each indexed row.
	lo, hi := 5, 19
	bs := randomMatrix(hi-lo, 9, rng)
	sliced := New(len(idx), hi-lo)
	for i, r := range idx {
		copy(sliced.Row(i), src.Row(int(r))[lo:hi])
	}
	want = MatMul(sliced, bs)
	got = GatherMatMulSliceSrc(FS(src), idx, lo, hi, bs)
	matricesExact(t, "GatherMatMulSlice", got, want)
	Put(got)
	Put(want)
}

// sliceCols copies columns [lo, hi) of m into a new matrix.
func sliceCols(m *Matrix, lo, hi int) *Matrix {
	out := New(m.Rows, hi-lo)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[lo:hi])
	}
	return out
}

// widen returns m as the column band [lo, lo+m.Cols) of a wider random
// matrix, the packed layout's view of one head.
func widen(m *Matrix, lo, cols int, rng *graph.RNG) *Matrix {
	w := randomMatrix(m.Rows, cols, rng)
	for i := 0; i < m.Rows; i++ {
		copy(w.Row(i)[lo:lo+m.Cols], m.Row(i))
	}
	return w
}

// TestMatMulTBitIdenticalToNaive pins MatMulT, which runs on the
// blocked GEMM against bᵀ, to the scalar dot product per element:
// k > gemmKC crosses k-panels, n a multiple of 8 runs wholly on the
// vector kernel while ragged n leaves it a tail, and m ≥ 32 at
// GOMAXPROCS 2 splits the rows into parallel bands. The band form reads the
// same a as a column band of a wider matrix.
func TestMatMulTBitIdenticalToNaive(t *testing.T) {
	rng := graph.NewRNG(35)
	shapes := [][3]int{
		{3, 5, 4}, {50, 30, 85}, {17, 130, 90}, {40, gemmKC + 37, 64},
		{64, 2*gemmKC + 3, 24}, {96, 33, gemmNB + 13}, {33, 8, 1},
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, dims := range shapes {
			a := randomMatrix(dims[0], dims[1], rng)
			b := randomMatrix(dims[2], dims[1], rng)
			want := New(a.Rows, b.Rows)
			for i := 0; i < a.Rows; i++ {
				for j := 0; j < b.Rows; j++ {
					var s float32
					for k := 0; k < a.Cols; k++ {
						s += a.At(i, k) * b.At(j, k)
					}
					want.Set(i, j, s)
				}
			}
			got := MatMulT(a, b)
			matricesExact(t, "MatMulT", got, want)
			Put(got)
			got = MatMulTSlice(widen(a, 5, a.Cols+11, rng), 5, 5+a.Cols, b)
			matricesExact(t, "MatMulTSlice", got, want)
			Put(got)
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestMatVecSliceBitIdenticalToMatMul pins the row-dot to the
// one-column GEMM it replaces, on a band and on a prefix of the rows.
func TestMatVecSliceBitIdenticalToMatMul(t *testing.T) {
	rng := graph.NewRNG(40)
	for _, dims := range [][2]int{{1, 1}, {7, 5}, {65, 32}, {130, gemmKC + 9}} {
		a := randomMatrix(dims[0], dims[1], rng)
		v := randomMatrix(dims[1], 1, rng)
		want := MatMul(a, v)
		got := make([]float32, a.Rows)
		matVecSlice(got, widen(a, 3, a.Cols+4, rng), 0, 3, 3+a.Cols, v.Data)
		matricesExact(t, "matVecSlice", FromData(a.Rows, 1, got), want)
		head := make([]float32, a.Rows/2)
		matVecSlice(head, a, 0, 0, a.Cols, v.Data)
		matricesExact(t, "matVecSlice rows", FromData(len(head), 1, head), FromData(len(head), 1, want.Data[:len(head)]))
		tail := make([]float32, a.Rows-a.Rows/2)
		matVecSlice(tail, a, a.Rows/2, 0, a.Cols, v.Data)
		matricesExact(t, "matVecSlice from", FromData(len(tail), 1, tail), FromData(len(tail), 1, want.Data[a.Rows/2:]))
		Put(want)
	}
}

// TestTMatMulAccBitIdenticalToNaive holds the weight-gradient kernel
// to the naive rank-1 loop at every worker count: the small shapes run
// inline, the large ones split dst's rows across workers. dst starts
// with −0 entries, which a wrongly added +0 term would flip.
func TestTMatMulAccBitIdenticalToNaive(t *testing.T) {
	rng := graph.NewRNG(36)
	forEachProcs(t, func(t *testing.T) {
		for _, dims := range [][3]int{{7, 12, 15}, {63, 12, 15}, {300, 40, 15}, {1200, 9, 64}, {500, 130, 33}} {
			a := simdMatrix(rng, dims[0], dims[1], 0)
			sparsify(a, 0.5, rng) // exercise the zero-skip pairs
			b := simdMatrix(rng, dims[0], dims[2], 0)
			got := simdMatrix(rng, dims[1], dims[2], 0) // nonzero dst: accumulate, not overwrite
			want := got.Clone()
			TMatMulAcc(got, a, b)
			naiveTMatMulAccF32(want, a, b)
			bitsEqual(t, fmt.Sprintf("TMatMulAcc %v", dims), got.Data, want.Data)
		}
	})
}

func TestGatherTMatMulAccMatchesGatherThenAcc(t *testing.T) {
	rng := graph.NewRNG(37)
	src := randomMatrix(30, 16, rng)
	idx := make([]int32, 45)
	for i := range idx {
		idx[i] = int32(rng.Intn(src.Rows))
	}
	b := randomMatrix(len(idx), 11, rng)

	want := Get(src.Cols, b.Cols)
	TMatMulAcc(want, Gather(src, idx), b)
	got := Get(src.Cols, b.Cols)
	GatherTMatMulAccSrc(got, FS(src), idx, b)
	matricesExact(t, "GatherTMatMulAcc", got, want)
	Put(got)
	Put(want)

	lo, hi := 3, 13
	sliced := New(len(idx), hi-lo)
	for i, r := range idx {
		copy(sliced.Row(i), src.Row(int(r))[lo:hi])
	}
	want = Get(hi-lo, b.Cols)
	TMatMulAcc(want, sliced, b)
	got = Get(hi-lo, b.Cols)
	GatherTMatMulAccSliceSrc(got, FS(src), idx, lo, hi, b)
	matricesExact(t, "GatherTMatMulAccSlice", got, want)
	Put(got)
	Put(want)
}

// TestSliceKernelsMatchWholeMatrixOnCopy holds each band kernel to the
// same kernel on a copy of the band, bit for bit, at every worker count
// (operands large enough for the parallel paths): which columns a band
// kernel reads must not change a bit of what it computes.
func TestSliceKernelsMatchWholeMatrixOnCopy(t *testing.T) {
	rng := graph.NewRNG(42)
	const lo, hi, cols = 7, 23, 37
	nSrc := 300
	z := randomMatrix(nSrc, cols, rng)
	sparsify(z, 0.3, rng)
	zb := sliceCols(z, lo, hi)
	idx := make([]int32, 2*nSrc)
	for i := range idx {
		idx[i] = int32(rng.Intn(nSrc))
	}
	forEachProcs(t, func(t *testing.T) {
		d := randomMatrix(len(idx), 40, rng)
		want := randomMatrix(hi-lo, 40, rng)
		got := want.Clone()
		GatherTMatMulAccSrc(want, FS(zb), idx, d)
		GatherTMatMulAccSliceSrc(got, FS(z), idx, lo, hi, d)
		matricesExact(t, "GatherTMatMulAccSliceSrc", got, want)

		w := randomMatrix(hi-lo, 40, rng)
		wantZ, gotZ := GatherMatMulSrc(FS(zb), idx, w), GatherMatMulSliceSrc(FS(z), idx, lo, hi, w)
		matricesExact(t, "GatherMatMulSliceSrc", gotZ, wantZ)

		b := randomMatrix(50, hi-lo, rng)
		wantH, gotH := MatMulT(zb, b), MatMulTSlice(z, lo, hi, b)
		matricesExact(t, "MatMulTSlice", gotH, wantH)
		for _, m := range []*Matrix{wantZ, gotZ, wantH, gotH} {
			Put(m)
		}
	})
}

func TestSegmentAggFusedMatchesUnfusedComposition(t *testing.T) {
	rng := graph.NewRNG(38)
	edgePtr, srcIdx := randomCSR(200, 80, 7, rng)
	src := randomMatrix(80, 13, rng)
	for _, mean := range []bool{false, true} {
		for _, relu := range []bool{false, true} {
			want := naiveAgg(edgePtr, srcIdx, src, mean, relu)
			got := SegmentAggFused(edgePtr, srcIdx, src, mean, relu)
			bitsEqual(t, "SegmentAggFused", got.Data, want.Data)
			if !mean && !relu {
				sum := SegmentSum(edgePtr, srcIdx, src)
				bitsEqual(t, "SegmentSum", sum.Data, want.Data)
				Put(sum)
			}

			// Backward: mask by forward support, scale by degree, scatter.
			dOut := simdMatrix(rng, got.Rows, got.Cols, 0)
			dWant := naiveAggBackward(edgePtr, srcIdx, got, dOut, mean, relu, src.Rows)
			dGot := SegmentAggFusedBackward(edgePtr, srcIdx, got, dOut, mean, relu, src.Rows)
			bitsEqual(t, "SegmentAggFusedBackward", dGot.Data, dWant.Data)
			Put(dGot)
			Put(got)
		}
	}
}

func TestSegmentAggFusedBackwardParallelMatchesSequential(t *testing.T) {
	rng := graph.NewRNG(39)
	nDst, nSrc := 1024, 220
	edgePtr, srcIdx := edgeCaseCSR(nDst, nSrc, 10, rng)
	src := simdMatrix(rng, nSrc, 9, 0)
	out := SegmentAggFused(edgePtr, srcIdx, src, true, true)
	dOut := simdMatrix(rng, nDst, 9, 0)
	modes := [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}}
	want := make([]*Matrix, len(modes))
	for m, mode := range modes {
		want[m] = naiveAggBackward(edgePtr, srcIdx, out, dOut, mode[0], mode[1], nSrc)
	}
	forEachProcs(t, func(t *testing.T) {
		for m, mode := range modes {
			got := SegmentAggFusedBackward(edgePtr, srcIdx, out, dOut, mode[0], mode[1], nSrc)
			bitsEqual(t, fmt.Sprintf("SegmentAggFusedBackward mean=%v relu=%v", mode[0], mode[1]), got.Data, want[m].Data)
			Put(got)
		}
	})
}

// TestPositiveMaskMatchesComparison holds the branch-free ReLU support
// test to v > 0 on every boundary of the float32 bit patterns (both
// zeros, the denormals, +Inf and every kind of NaN) and on a sweep of
// the rest.
func TestPositiveMaskMatchesComparison(t *testing.T) {
	bits := []uint32{
		0, 1, 0x007fffff, 0x00800000, 0x3f800000, 0x7f7fffff, 0x7f800000,
		0x7f800001, 0x7fc00000, 0x7fffffff,
	}
	for _, b := range bits[:len(bits):len(bits)] {
		bits = append(bits, b|0x80000000)
	}
	for b := uint64(0); b < 1<<32; b += 65537 {
		bits = append(bits, uint32(b))
	}
	for _, b := range bits {
		v := math.Float32frombits(b)
		want := uint32(0)
		if v > 0 {
			want = ^uint32(0)
		}
		if got := positiveMask(v); got != want {
			t.Fatalf("positiveMask(%#08x) = %#08x, want %#08x", b, got, want)
		}
	}
}

func TestReLUInPlaceMatchesReLU(t *testing.T) {
	x := FromData(1, 11, []float32{-1, 0, 2, -3, float32(math.Copysign(0, -1)), float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.MaxFloat32})
	want := ReLU(x)
	ReLUInPlace(x)
	for i := range want.Data {
		if x.Data[i] != want.Data[i] || math.Signbit(float64(x.Data[i])) != math.Signbit(float64(want.Data[i])) {
			t.Errorf("ReLUInPlace[%d] = %v (signbit %v), want %v", i, x.Data[i],
				math.Signbit(float64(x.Data[i])), want.Data[i])
		}
	}
}

// TestFusedKernelsAllocFree is the allocation guard for the kernel hot
// path: with the pool warm and GOMAXPROCS=1 (the inline kernel path;
// spawning the fan-out's goroutines and their closure allocates), one
// forward+backward step through the dense, fused and tiered-source
// kernels — MatMulT, the band kernels and the attention forward and
// backward of the packed GAT layer among them — must not touch the
// allocator. The pipelined engine depends on it; neither the int8
// tier's pooled dequant scratch (the weight gradient's dequant panel
// among it), the backwards' source-major index buffers nor the
// attention's job and edge-major buffers may show up as steady-state
// allocation.
func TestFusedKernelsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	rng := graph.NewRNG(41)
	feats := randomMatrix(300, 32, rng)
	tiered := benchFeatSource(feats) // every other row in the int8 tier
	w := randomMatrix(32, 16, rng)
	w2 := randomMatrix(16, 16, rng)
	edgePtr, srcIdx := randomCSR(120, 200, 6, rng)
	idx := make([]int32, 200)
	for i := range idx {
		idx[i] = int32(rng.Intn(feats.Rows))
	}
	grad := New(32, 16)
	grad2 := New(16, 16)
	// n = 32 weight gradients (32 × 32, whole row octets): the eight-row
	// kernel's row table and int8 dequant panel must not allocate.
	w32 := randomMatrix(32, 32, rng)
	grad32 := New(32, 32)
	// Two-head attention over the packed [200, 2·8] projection.
	att := randomMatrix(200, 16, rng)
	aVecs := randomMatrix(2, 16, rng)
	wBand := randomMatrix(12, 8, rng)
	attEdgePtr, attSrcIdx := randomCSR(120, 200, 6, rng)

	step := func() {
		z := GatherMatMulSrc(FS(feats), idx, w)
		s := SegmentAggFused(edgePtr, srcIdx, z, true, true)
		dOut := s // reuse as a stand-in gradient
		dZ := SegmentAggFusedBackward(edgePtr, srcIdx, s, dOut, true, true, z.Rows)
		GatherTMatMulAccSrc(grad, FS(feats), idx, dZ)
		dH := MatMulT(dZ, w)
		ReLUInPlace(dH)
		h := MatMul(z, w2)
		TMatMulAcc(grad2, z, h)
		zq := GatherMatMulSrc(tiered, idx, w)
		GatherTMatMulAccSrc(grad, tiered, idx, zq)
		Put(zq)
		z32 := GatherMatMulSrc(FS(feats), idx, w32)
		TMatMulAcc(grad32, z32, z32)
		GatherTMatMulAccSrc(grad32, FS(feats), idx, z32)
		GatherTMatMulAccSrc(grad32, tiered, idx, z32)
		Put(z32)
		ao, scores, alpha := SegmentAttention(attEdgePtr, attSrcIdx, att, aVecs, 2, true)
		dAtt, dA := SegmentAttentionBackward(attEdgePtr, attSrcIdx, att, aVecs, scores, alpha, ao, ao, true)
		dHBand := MatMulTSlice(dAtt, 8, 16, wBand)
		Put(dHBand)
		Put(dAtt)
		Put(dA)
		Put(scores)
		Put(alpha)
		Put(ao)
		Put(h)
		Put(dH)
		Put(dZ)
		Put(s)
		Put(z)
	}
	step() // warm the pools
	if allocs := testing.AllocsPerRun(10, step); allocs > 0 {
		t.Errorf("kernel step allocates %.1f times per run, want 0", allocs)
	}
}
