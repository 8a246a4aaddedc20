//go:build !amd64

package tensor

// No vector kernels on this architecture: the Go loops in matmul.go do
// all the work (see kernels_amd64.go for the contracts).

// hasAVX512 is false here, so gemmTile keeps its one-row loop.
const hasAVX512 = false

func gemmPanelVec(or, arp, bd []float32, bw, bj int) int { return 0 }

func gemmPanelQuadVec(or, ar *[4][]float32, pf *quadAhead, bd []float32, bw, bj int) int { return 0 }

func tmatmulAcc8Vec(dd []float32, i, m, n, ds int, ar *[8][]float32, b8 []float32, bw int) int {
	return i
}

func tmatmulAccOctVec(dst *Matrix, a gemmA, b *Matrix, lo, hi int) (m8, n16 int) { return 0, 0 }

func rowAccVec(dst []float32, t *rowTerms) int { return 0 }
