package tensor

import (
	"testing"

	"repro/internal/graph"
)

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

// TestSegmentSumBackwardParallelMatchesSequential drives blocks large
// enough to take the parallel partial-accumulator path and compares
// against the sequential scatter. Partials merge in worker order, so
// the summation order differs from the sequential path; the documented
// tolerance is float32 reassociation error (~1e-4 relative on these
// magnitudes), not bit identity.
func TestSegmentSumBackwardParallelMatchesSequential(t *testing.T) {
	rng := graph.NewRNG(21)
	nDst, nSrc := 4*segBackwardMinDst, 300
	edgePtr, srcIdx := randomCSR(nDst, nSrc, 12, rng)
	dOut := randomMatrix(nDst, 17, rng)

	got := SegmentSumBackward(edgePtr, srcIdx, dOut, nSrc)
	want := Get(nSrc, dOut.Cols)
	segmentScatterRange(edgePtr, srcIdx, dOut, want, 0, nDst)
	if d := got.MaxAbsDiff(want); d > 1e-3 {
		t.Errorf("parallel SegmentSumBackward diff %g > 1e-3", d)
	}
	Put(got)
	Put(want)
}

func TestSegmentMeanBackwardParallelMatchesSequential(t *testing.T) {
	rng := graph.NewRNG(22)
	nDst, nSrc := 3*segBackwardMinDst, 250
	edgePtr, srcIdx := randomCSR(nDst, nSrc, 9, rng)
	dOut := randomMatrix(nDst, 8, rng)

	got := SegmentMeanBackward(edgePtr, srcIdx, dOut, nSrc)

	scaled := dOut.Clone()
	for i := 0; i < nDst; i++ {
		if d := edgePtr[i+1] - edgePtr[i]; d > 1 {
			inv := float32(1.0 / float64(d))
			row := scaled.Row(i)
			for j := range row {
				row[j] *= inv
			}
		}
	}
	want := Get(nSrc, dOut.Cols)
	segmentScatterRange(edgePtr, srcIdx, scaled, want, 0, nDst)
	if d := got.MaxAbsDiff(want); d > 1e-3 {
		t.Errorf("parallel SegmentMeanBackward diff %g > 1e-3", d)
	}
	Put(got)
	Put(want)
}

func TestSegmentWeightedSumBackwardParallelMatchesSequential(t *testing.T) {
	rng := graph.NewRNG(23)
	nDst, nSrc := 4*segBackwardMinDst, 200
	edgePtr, srcIdx := randomCSR(nDst, nSrc, 10, rng)
	src := randomMatrix(nSrc, 11, rng)
	dOut := randomMatrix(nDst, 11, rng)
	w := make([]float32, len(srcIdx))
	for i := range w {
		w[i] = rng.NormFloat32()
	}

	gotSrc, gotW := Get(nSrc, src.Cols), make([]float32, len(w))
	SegmentWeightedSumBackward(gotSrc, gotW, edgePtr, srcIdx, w, src, dOut, 0, src.Cols)
	wantSrc := Get(nSrc, src.Cols)
	wantW := make([]float32, len(w))
	segmentWeightedScatterRange(edgePtr, srcIdx, w, src, dOut, wantSrc, wantW, 0, src.Cols, 0, 0, nDst)

	if d := gotSrc.MaxAbsDiff(wantSrc); d > 1e-3 {
		t.Errorf("parallel SegmentWeightedSumBackward dSrc diff %g", d)
	}
	for e := range wantW {
		// dW entries are written by exactly one worker each — identical.
		if gotW[e] != wantW[e] {
			t.Fatalf("dW[%d] = %v, want %v (must be bit-identical)", e, gotW[e], wantW[e])
		}
	}
	Put(gotSrc)
	Put(wantSrc)
}
