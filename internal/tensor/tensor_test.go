package tensor

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func randomMatrix(rows, cols int, rng *graph.RNG) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat32()
	}
	return m
}

// naiveMatMul is the O(n^3) reference implementation.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			out.Set(i, j, float32(s))
		}
	}
	return out
}

func matricesClose(t *testing.T, name string, got, want *Matrix, tol float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if d := got.MaxAbsDiff(want); d > tol {
		t.Errorf("%s: max abs diff %g > %g", name, d, tol)
	}
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := graph.NewRNG(1)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {17, 9, 23}, {64, 32, 48}, {100, 7, 3}} {
		a := randomMatrix(dims[0], dims[1], rng)
		b := randomMatrix(dims[1], dims[2], rng)
		matricesClose(t, "MatMul", MatMul(a, b), naiveMatMul(a, b), 1e-3)
	}
}

func TestMatMulTEquivalence(t *testing.T) {
	rng := graph.NewRNG(2)
	a := randomMatrix(13, 7, rng)
	b := randomMatrix(11, 7, rng)
	// a @ bT == naive(a, transpose(b))
	bt := New(b.Cols, b.Rows)
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	matricesClose(t, "MatMulT", MatMulT(a, b), naiveMatMul(a, bt), 1e-3)
}

func TestTMatMulEquivalence(t *testing.T) {
	rng := graph.NewRNG(3)
	a := randomMatrix(1500, 6, rng) // tall enough for the parallel path
	b := randomMatrix(1500, 9, rng)
	forEachProcs(t, func(t *testing.T) {
		got := New(a.Cols, b.Cols)
		TMatMulAcc(got, a, b)
		want := New(a.Cols, b.Cols)
		naiveTMatMulAccF32(want, a, b)
		bitsEqual(t, "TMatMulAcc", got.Data, want.Data)
	})
}

func TestMatMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MatMul accepted mismatched shapes")
		}
	}()
	MatMul(New(2, 3), New(4, 5))
}

func TestGatherScatterRoundTrip(t *testing.T) {
	rng := graph.NewRNG(4)
	src := randomMatrix(10, 5, rng)
	idx := []int32{3, 3, 7, 0}
	g := Gather(src, idx)
	for i, r := range idx {
		for j := 0; j < 5; j++ {
			if g.At(i, j) != src.At(int(r), j) {
				t.Fatalf("gather mismatch at %d,%d", i, j)
			}
		}
	}
	// Gather's backward is the segment scatter with one edge per row.
	dst := SegmentSumBackward([]int64{0, 1, 2, 3, 4}, idx, g, 10)
	// Row 3 was gathered twice, so scatter doubles it.
	for j := 0; j < 5; j++ {
		if math.Abs(float64(dst.At(3, j)-2*src.At(3, j))) > 1e-6 {
			t.Errorf("scatter double-count wrong at col %d", j)
		}
		if dst.At(1, j) != 0 {
			t.Errorf("untouched row modified")
		}
	}
}

// simple block CSR: 3 destinations, 4 sources.
//
//	dst0 <- src0, src1
//	dst1 <- (empty)
//	dst2 <- src1, src2, src3
var (
	tEdgePtr = []int64{0, 2, 2, 5}
	tSrcIdx  = []int32{0, 1, 1, 2, 3}
)

// TestIotaConcurrent has goroutines ask for identity indices of
// growing lengths at once, so that growers race each other and readers
// race growers (run it under -race): every result must be exactly
// 0..n-1, with length and capacity n, however the shared slice grew.
func TestIotaConcurrent(t *testing.T) {
	const goroutines, rounds = 8, 200
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := r*37 + g*11
				idx := Iota(n)
				if len(idx) != n || cap(idx) != n {
					errs <- "wrong length or capacity"
					return
				}
				for i, v := range idx {
					if v != int32(i) {
						errs <- "not the identity"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestSegmentSumAndMean(t *testing.T) {
	src := FromData(4, 2, []float32{1, 2, 3, 4, 5, 6, 7, 8})
	sum := SegmentSum(tEdgePtr, tSrcIdx, src)
	want := FromData(3, 2, []float32{4, 6, 0, 0, 15, 18})
	matricesClose(t, "SegmentSum", sum, want, 1e-6)

	mean := SegmentMean(tEdgePtr, tSrcIdx, src)
	wantMean := FromData(3, 2, []float32{2, 3, 0, 0, 5, 6})
	matricesClose(t, "SegmentMean", mean, wantMean, 1e-6)
}

func TestSegmentSumBackwardMatchesNumerical(t *testing.T) {
	rng := graph.NewRNG(5)
	src := randomMatrix(4, 3, rng)
	dOut := randomMatrix(3, 3, rng)
	dSrc := SegmentSumBackward(tEdgePtr, tSrcIdx, dOut, 4)
	// Numerical check: d/dsrc[r][c] of <out, dOut> equals dSrc[r][c].
	const eps = 1e-3
	for r := 0; r < 4; r++ {
		for c := 0; c < 3; c++ {
			orig := src.At(r, c)
			src.Set(r, c, orig+eps)
			up := inner(SegmentSum(tEdgePtr, tSrcIdx, src), dOut)
			src.Set(r, c, orig-eps)
			down := inner(SegmentSum(tEdgePtr, tSrcIdx, src), dOut)
			src.Set(r, c, orig)
			num := (up - down) / (2 * eps)
			if math.Abs(num-float64(dSrc.At(r, c))) > 1e-2 {
				t.Errorf("dSrc[%d][%d] = %v, numerical %v", r, c, dSrc.At(r, c), num)
			}
		}
	}
}

func TestSegmentMeanBackwardMatchesNumerical(t *testing.T) {
	rng := graph.NewRNG(6)
	src := randomMatrix(4, 2, rng)
	dOut := randomMatrix(3, 2, rng)
	dSrc := SegmentAggFusedBackward(tEdgePtr, tSrcIdx, nil, dOut, true, false, 4)
	const eps = 1e-3
	for r := 0; r < 4; r++ {
		for c := 0; c < 2; c++ {
			orig := src.At(r, c)
			src.Set(r, c, orig+eps)
			up := inner(SegmentMean(tEdgePtr, tSrcIdx, src), dOut)
			src.Set(r, c, orig-eps)
			down := inner(SegmentMean(tEdgePtr, tSrcIdx, src), dOut)
			src.Set(r, c, orig)
			num := (up - down) / (2 * eps)
			if math.Abs(num-float64(dSrc.At(r, c))) > 1e-2 {
				t.Errorf("dSrc[%d][%d] = %v, numerical %v", r, c, dSrc.At(r, c), num)
			}
		}
	}
}

func inner(a, b *Matrix) float64 {
	var s float64
	for i := range a.Data {
		s += float64(a.Data[i]) * float64(b.Data[i])
	}
	return s
}

// attnWeights runs a one-head, one-column attention whose logits are
// z[i] + z[src e] and returns its weights.
func attnWeights(edgePtr []int64, srcIdx []int32, z []float32) []float32 {
	out, scores, alpha := SegmentAttention(edgePtr, srcIdx, FromData(len(z), 1, z), FromData(2, 1, []float32{1, 1}), 1, false)
	Put(out)
	Put(scores)
	return alpha.Data
}

func TestSegmentSoftmaxNormalizes(t *testing.T) {
	p := attnWeights(tEdgePtr, tSrcIdx, []float32{1, 2, 0.5, -1})
	for i := 0; i+1 < len(tEdgePtr); i++ {
		lo, hi := tEdgePtr[i], tEdgePtr[i+1]
		if lo == hi {
			continue
		}
		var sum float64
		for e := lo; e < hi; e++ {
			if p[e] < 0 || p[e] > 1 {
				t.Errorf("prob out of range: %v", p[e])
			}
			sum += float64(p[e])
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("segment %d probs sum to %v", i, sum)
		}
	}
}

func TestSegmentSoftmaxStability(t *testing.T) {
	p := attnWeights(tEdgePtr, tSrcIdx, []float32{1000, 1001, 0, -3000})
	for _, v := range p {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax produced %v on large inputs", v)
		}
	}
}

func TestSDDMMAdd(t *testing.T) {
	dstVal := []float32{10, 20, 30}
	srcVal := []float32{1, 2, 3, 4}
	s := SDDMMAdd(tEdgePtr, tSrcIdx, dstVal, srcVal)
	want := []float32{11, 12, 32, 33, 34}
	for i := range want {
		if s[i] != want[i] {
			t.Errorf("score[%d] = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestReLUAndBackward(t *testing.T) {
	x := FromData(1, 4, []float32{-1, 0, 2, -3})
	y := ReLU(x)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Errorf("ReLU[%d] = %v, want %v", i, y.Data[i], want[i])
		}
	}
	d := ReLUBackward(y, FromData(1, 4, []float32{5, 5, 5, 5}))
	wantD := []float32{0, 0, 5, 0}
	for i := range wantD {
		if d.Data[i] != wantD[i] {
			t.Errorf("dReLU[%d] = %v, want %v", i, d.Data[i], wantD[i])
		}
	}
}

func TestLeakyReLU(t *testing.T) {
	if y0, y1 := leaky(-2, -2), leaky(3, 3); y0 != -0.4 || y1 != 3 {
		t.Errorf("LeakyReLU = %v %v", y0, y1)
	}
	if d0, d1 := leaky(-2, 1), leaky(3, 1); d0 != 0.2 || d1 != 1 {
		t.Errorf("LeakyReLU backward = %v %v", d0, d1)
	}
}

func TestMatMulLinearityProperty(t *testing.T) {
	rng := graph.NewRNG(8)
	f := func(seed uint64) bool {
		r := graph.NewRNG(seed)
		a := randomMatrix(6, 4, r)
		b := randomMatrix(4, 5, r)
		c := randomMatrix(4, 5, r)
		// A(B+C) == AB + AC
		bc := b.Clone()
		bc.AddInPlace(c)
		left := MatMul(a, bc)
		right := MatMul(a, b)
		right.AddInPlace(MatMul(a, c))
		return left.MaxAbsDiff(right) < 1e-4
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMatrixHelpers(t *testing.T) {
	m := FromData(2, 2, []float32{1, 2, 3, 4})
	if m.Bytes() != 16 {
		t.Errorf("Bytes = %d, want 16", m.Bytes())
	}
	c := m.Clone()
	c.AddInPlace(m)
	if m.At(0, 0) != 1 || c.At(0, 0) != 2 {
		t.Error("Clone aliases original")
	}
	m.AXPY(3, c)
	if m.At(1, 1) != 28 {
		t.Errorf("AXPY result %v, want 28", m.At(1, 1))
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero left a nonzero element")
		}
	}
}

// SegmentMean computes out[i] = mean over segment i (zero for empty
// segments) — GraphSAGE's mean aggregation, the reference the fused
// kernels are tested against.
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

// ReLU applies max(0, x) elementwise, returning a new (pool-backed)
// matrix: the reference for ReLUInPlace and the fused ReLU flags.
func ReLU(x *Matrix) *Matrix {
	out := Get(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}
