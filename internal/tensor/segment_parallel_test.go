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

// TestBackwardsConcurrentCallers runs the gathering backwards from
// several goroutines at once, on blocks of different sizes, so pinned
// transposes and attention jobs pass between callers and are regrown
// and reused while others are in flight (run it under -race).
func TestBackwardsConcurrentCallers(t *testing.T) {
	type block struct {
		attnCase
		scores, alpha, out *Matrix
		wantAgg            *Matrix
		wantDZ, wantDA     *Matrix
	}
	rng := graph.NewRNG(24)
	blocks := make([]block, 4)
	for i := range blocks {
		b := &blocks[i]
		b.attnCase = newAttnCase(rng, 100+150*i, 160+190*i, 3+2*i, 1+i%3, 3)
		b.wantAgg = naiveAggBackward(b.edgePtr, b.srcIdx, nil, b.dOut, true, false, b.z.Rows)
		var s, a [][]float32
		b.out, s, a = refAttention(b.edgePtr, b.srcIdx, b.z, b.a, b.heads, true)
		b.wantDA = New(2, b.z.Cols)
		b.wantDZ = refAttentionBackward(b.edgePtr, b.srcIdx, b.z, b.a, s, a, b.out, b.dOut, true, b.wantDA)
		b.scores, b.alpha = New(len(b.srcIdx), b.heads), New(len(b.srcIdx), b.heads)
		for k := range s {
			for e := range b.srcIdx {
				b.scores.Set(e, k, s[k][e])
				b.alpha.Set(e, k, a[k][e])
			}
		}
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
					got := SegmentAggFusedBackward(b.edgePtr, b.srcIdx, nil, b.dOut, true, false, b.z.Rows)
					dZ, dA := SegmentAttentionBackward(b.edgePtr, b.srcIdx, b.z, b.a, b.scores, b.alpha, b.out, b.dOut, true)
					ok := same(t, g, "mean backward", got.Data, b.wantAgg.Data) &&
						same(t, g, "attention dZ", dZ.Data, b.wantDZ.Data) &&
						same(t, g, "attention dA", dA.Data, b.wantDA.Data)
					Put(got)
					Put(dZ)
					Put(dA)
					if !ok {
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}
