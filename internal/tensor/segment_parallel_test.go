package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/graph"
)

// The parallel kernels split only their outputs, so every result must
// equal the naive sequential reference below bit for bit
// (math.Float32bits, which tells −0 from +0) at any GOMAXPROCS.

// testProcs are the worker counts every parallel-kernel test runs at:
// one (the inline path), two and three (uneven splits), and more
// workers than the blocks have cores for.
var testProcs = []int{1, 2, 3, 8}

// forEachProcs runs f as one subtest per GOMAXPROCS in testProcs.
func forEachProcs(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, procs := range testProcs {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// randomCSR builds a random bipartite block with nDst destinations over
// nSrc sources, degree up to maxDeg.
func randomCSR(nDst, nSrc, maxDeg int, rng *graph.RNG) ([]int64, []int32) {
	edgePtr := make([]int64, nDst+1)
	var srcIdx []int32
	for i := 0; i < nDst; i++ {
		d := rng.Intn(maxDeg + 1)
		for j := 0; j < d; j++ {
			srcIdx = append(srcIdx, int32(rng.Intn(nSrc)))
		}
		edgePtr[i+1] = int64(len(srcIdx))
	}
	return edgePtr, srcIdx
}

// edgeCaseCSR is randomCSR with the cases a scatter-to-gather rewrite
// can get wrong made certain: every seventh destination is empty, about
// a quarter of the edges repeat their destination's previous source,
// and every source row s with s%5 == 3 has no edge at all.
func edgeCaseCSR(nDst, nSrc, maxDeg int, rng *graph.RNG) ([]int64, []int32) {
	edgePtr := make([]int64, nDst+1)
	var srcIdx []int32
	for i := 0; i < nDst; i++ {
		d := 0
		if i%7 != 0 {
			d = 1 + rng.Intn(maxDeg)
		}
		for j := 0; j < d; j++ {
			s := int32(rng.Intn(nSrc))
			if j > 0 && rng.Intn(4) == 0 {
				s = srcIdx[len(srcIdx)-1]
			}
			for s%5 == 3 {
				s = int32(rng.Intn(nSrc))
			}
			srcIdx = append(srcIdx, s)
		}
		edgePtr[i+1] = int64(len(srcIdx))
	}
	return edgePtr, srcIdx
}

// naiveScatter is the sequential scatter every sum backward must
// reproduce: dSrc[srcIdx[e]] += g[i] for the edges e of each
// destination i, destinations and edges in order.
func naiveScatter(edgePtr []int64, srcIdx []int32, g, dSrc *Matrix) {
	for i := 0; i+1 < len(edgePtr); i++ {
		for e := edgePtr[i]; e < edgePtr[i+1]; e++ {
			sr := dSrc.Row(int(srcIdx[e]))
			for j, v := range g.Row(i) {
				sr[j] += v
			}
		}
	}
}

// naiveAgg is the unfused aggregation forward written out one edge at
// a time: each destination row sums its edges' source rows from +0 in
// edge order, then a separate pass scales by the inverse degree (mean,
// degree > 1) and another clamps to +0 (relu).
func naiveAgg(edgePtr []int64, srcIdx []int32, src *Matrix, mean, relu bool) *Matrix {
	out := New(len(edgePtr)-1, src.Cols)
	for i := 0; i < out.Rows; i++ {
		or := out.Row(i)
		for e := edgePtr[i]; e < edgePtr[i+1]; e++ {
			for j, v := range src.Row(int(srcIdx[e])) {
				or[j] += v
			}
		}
		if d := edgePtr[i+1] - edgePtr[i]; mean && d > 1 {
			inv := float32(1.0 / float64(d))
			for j := range or {
				or[j] *= inv
			}
		}
		if relu {
			for j, v := range or {
				if !(v > 0) {
					or[j] = 0
				}
			}
		}
	}
	return out
}

// naiveAggBackward is SegmentAggFusedBackward spelled out: mask dOut by
// out's support (relu), scale each row by its inverse degree (mean),
// then scatter from +0.
func naiveAggBackward(edgePtr []int64, srcIdx []int32, out, dOut *Matrix, mean, relu bool, nSrc int) *Matrix {
	g := dOut.Clone()
	for i := 0; i < g.Rows; i++ {
		gr := g.Row(i)
		if relu {
			for j := range gr {
				if !(out.At(i, j) > 0) {
					gr[j] = 0
				}
			}
		}
		if d := edgePtr[i+1] - edgePtr[i]; mean && d > 1 {
			inv := float32(1.0 / float64(d))
			for j := range gr {
				gr[j] *= inv
			}
		}
	}
	dSrc := New(nSrc, dOut.Cols)
	naiveScatter(edgePtr, srcIdx, g, dSrc)
	return dSrc
}

// naiveWeightedBackward is SegmentWeightedSumBackward's sequential
// scatter on band [lo, hi): per edge, in order, dSrc's band gains
// w[e]·dOut[i] and dW[e] is the dot of the source and dOut rows.
func naiveWeightedBackward(dSrc *Matrix, dW []float32, edgePtr []int64, srcIdx []int32, w []float32, src, dOut *Matrix, lo, hi int) {
	for i := 0; i+1 < len(edgePtr); i++ {
		dr := dOut.Row(i)[lo:hi]
		for e := edgePtr[i]; e < edgePtr[i+1]; e++ {
			s := int(srcIdx[e])
			sr, ds := src.Row(s)[lo:hi], dSrc.Row(s)[lo:hi]
			var dot float32
			for j := range dr {
				ds[j] += w[e] * dr[j]
				dot += sr[j] * dr[j]
			}
			dW[e] = dot
		}
	}
}

func TestSegmentSumBackwardParallelMatchesSequential(t *testing.T) {
	rng := graph.NewRNG(21)
	nDst, nSrc := 1024, 300
	edgePtr, srcIdx := edgeCaseCSR(nDst, nSrc, 12, rng)
	dOut := simdMatrix(rng, nDst, 17, 0)
	want := New(nSrc, dOut.Cols)
	naiveScatter(edgePtr, srcIdx, dOut, want)
	forEachProcs(t, func(t *testing.T) {
		got := SegmentSumBackward(edgePtr, srcIdx, dOut, nSrc)
		bitsEqual(t, "SegmentSumBackward", got.Data, want.Data)
		Put(got)
	})
}

func TestSegmentMeanBackwardParallelMatchesSequential(t *testing.T) {
	rng := graph.NewRNG(22)
	nDst, nSrc := 768, 250
	edgePtr, srcIdx := edgeCaseCSR(nDst, nSrc, 9, rng)
	dOut := simdMatrix(rng, nDst, 8, 0)
	want := naiveAggBackward(edgePtr, srcIdx, nil, dOut, true, false, nSrc)
	forEachProcs(t, func(t *testing.T) {
		got := SegmentAggFusedBackward(edgePtr, srcIdx, nil, dOut, true, false, nSrc)
		bitsEqual(t, "mean backward", got.Data, want.Data)
		Put(got)
	})
}

func TestSegmentWeightedSumBackwardParallelMatchesSequential(t *testing.T) {
	rng := graph.NewRNG(23)
	nDst, nSrc := 1024, 200
	edgePtr, srcIdx := edgeCaseCSR(nDst, nSrc, 10, rng)
	src := simdMatrix(rng, nSrc, 11, 0)
	dOut := simdMatrix(rng, nDst, 11, 0)
	w := make([]float32, len(srcIdx))
	for i := range w {
		w[i] = rng.NormFloat32()
	}
	// A non-zero starting gradient with −0 entries: the kernel adds onto
	// it and must leave the rows no edge reaches exactly as they were.
	dSrc0 := simdMatrix(rng, nSrc, 11, 0)
	wantSrc, wantW := dSrc0.Clone(), make([]float32, len(w))
	naiveWeightedBackward(wantSrc, wantW, edgePtr, srcIdx, w, src, dOut, 0, src.Cols)
	forEachProcs(t, func(t *testing.T) {
		gotSrc, gotW := dSrc0.Clone(), make([]float32, len(w))
		SegmentWeightedSumBackward(gotSrc, gotW, edgePtr, srcIdx, w, src, dOut, 0, src.Cols)
		bitsEqual(t, "SegmentWeightedSumBackward dSrc", gotSrc.Data, wantSrc.Data)
		bitsEqual(t, "SegmentWeightedSumBackward dW", gotW, wantW)
	})
}

// TestBackwardsConcurrentCallers runs the gathering backwards from
// several goroutines at once, on blocks of different sizes, so pinned
// transposes pass between callers and are regrown and reused while
// others are in flight (run it under -race).
func TestBackwardsConcurrentCallers(t *testing.T) {
	type block struct {
		edgePtr   []int64
		srcIdx    []int32
		src, dOut *Matrix
		w         []float32
		wantAgg   *Matrix
		wantSrc   *Matrix
		wantW     []float32
	}
	rng := graph.NewRNG(24)
	blocks := make([]block, 4)
	for i := range blocks {
		b := &blocks[i]
		nDst, nSrc := 100+150*i, 60+90*i
		b.edgePtr, b.srcIdx = edgeCaseCSR(nDst, nSrc, 3+2*i, rng)
		b.src = simdMatrix(rng, nSrc, 9, 0)
		b.dOut = simdMatrix(rng, nDst, 9, 0)
		b.w = make([]float32, len(b.srcIdx))
		for e := range b.w {
			b.w[e] = rng.NormFloat32()
		}
		b.wantAgg = naiveAggBackward(b.edgePtr, b.srcIdx, nil, b.dOut, true, false, nSrc)
		b.wantSrc, b.wantW = New(nSrc, 9), make([]float32, len(b.w))
		naiveWeightedBackward(b.wantSrc, b.wantW, b.edgePtr, b.srcIdx, b.w, b.src, b.dOut, 0, 9)
	}
	// same reports the first element whose bits differ; t.Fatal is not
	// for goroutines other than the test's own.
	same := func(t *testing.T, g int, name string, got, want []float32) bool {
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Errorf("goroutine %d: %s element %d = %v, want %v", g, name, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	forEachProcs(t, func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for it := 0; it < 20; it++ {
					b := &blocks[(g+it)%len(blocks)]
					got := SegmentAggFusedBackward(b.edgePtr, b.srcIdx, nil, b.dOut, true, false, b.src.Rows)
					gotSrc, gotW := New(b.src.Rows, 9), make([]float32, len(b.w))
					SegmentWeightedSumBackward(gotSrc, gotW, b.edgePtr, b.srcIdx, b.w, b.src, b.dOut, 0, 9)
					ok := same(t, g, "mean backward", got.Data, b.wantAgg.Data) &&
						same(t, g, "weighted dSrc", gotSrc.Data, b.wantSrc.Data) &&
						same(t, g, "weighted dW", gotW, b.wantW)
					Put(got)
					if !ok {
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}
