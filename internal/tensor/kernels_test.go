package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// The vector kernels promise the bits of the Go loops they stand in
// for, so everything here compares math.Float32bits — which, unlike
// ==, also tells +0 from −0 — between the dispatched entry points and
// the …Generic ones. Both are called directly: no test switches a
// package variable to choose a path.

// requireVectorKernels skips unless the dispatched kernels really are
// the vector ones, so a comparison never passes by running the Go loop
// against itself. On amd64 with AVX2 the probe is true (see
// TestAVX2DetectionMatchesCPUInfo for the detection itself).
func requireVectorKernels(t testing.TB) {
	t.Helper()
	if gemmPanelVec(make([]float32, 8), []float32{1}, make([]float32, 8), 8, 0) == 0 {
		t.Skipf("no vector kernels on this platform (GOARCH=%s; on amd64 they need AVX2 and OS support for the YMM state)", runtime.GOARCH)
	}
}

// requireAVX512 skips unless the four-row kernel really runs, so its
// comparisons never pass by running gemmPanelDense against the Go loop
// (see TestAVX512DetectionMatchesCPUInfo for the detection itself).
func requireAVX512(t testing.TB) {
	t.Helper()
	row := func() []float32 { return make([]float32, 16) }
	or := [4][]float32{row(), row(), row(), row()}
	ar := [4][]float32{{1}, {1}, {1}, {1}}
	if gemmPanelQuadVec(&or, &ar, make([]float32, 16), 16, 0) == 0 {
		t.Skipf("no four-row kernel on this platform (GOARCH=%s; on amd64 it needs AVX-512F and OS support for the ZMM state)", runtime.GOARCH)
	}
}

// requireOctKernel skips unless the eight-row weight-gradient kernel
// really runs, so its comparisons never pass by running the Go loops
// against themselves.
func requireOctKernel(t testing.TB) {
	t.Helper()
	a := New(1, 8)
	for i := range a.Data {
		a.Data[i] = 1
	}
	if m8, _ := tmatmulAccOctVec(New(8, 16), gemmA{src: a, hi: 8}, New(1, 16), 0, 1); m8 == 0 {
		t.Skipf("no eight-row kernel on this platform (GOARCH=%s; on amd64 it needs AVX-512F and OS support for the ZMM state)", runtime.GOARCH)
	}
}

var simdNegZero = float32(math.Copysign(0, -1))

// simdSpecials are the values most likely to expose a lane that does
// not do exactly what the scalar loop does: both zeros (the skip tests
// are sign-blind, the adds are not) and denormals (no flush-to-zero).
var simdSpecials = []float32{
	0, simdNegZero,
	math.Float32frombits(1), -math.Float32frombits(3),
	1e-39, -1e-39, 1.17549435e-38, // around the smallest normal
}

// simdMatrix draws a matrix of unit normals with about an eighth of the
// entries replaced by specials; zeroRowIn > 0 additionally blanks about
// one row in that many (all-zero A rows forward, the
// all-coefficients-zero skips backward).
func simdMatrix(rng *graph.RNG, rows, cols, zeroRowIn int) *Matrix {
	m := randomMatrix(rows, cols, rng)
	for i := range m.Data {
		if rng.Intn(8) == 0 {
			m.Data[i] = simdSpecials[rng.Intn(len(simdSpecials))]
		}
	}
	for r := 0; zeroRowIn > 0 && r < rows; r++ {
		if rng.Intn(zeroRowIn) == 0 {
			clear(m.Row(r))
		}
	}
	return m
}

func bitsEqual(t testing.TB, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#08x), generic %v (%#08x)", name, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// simdCase is one shape of the comparison. form selects how the left
// operand is read: 0 a plain matrix, 1 gathered rows (with repeats),
// 2 an unaligned column window of gathered rows, 3 that window over a
// source with every other row in the int8 tier.
type simdCase struct {
	seed uint64
	n    int // output columns
	k    int // reduction length: panel depth forward, row count backward
	m    int // the other extent of A: output rows
	form int
}

func (c simdCase) String() string {
	return fmt.Sprintf("n%d_k%d_m%d_form%d", c.n, c.k, c.m, c.form)
}

// operand builds an A operand of the given logical shape in form
// c.form, returning the kernels' view of it and the arguments of the
// matching public entry point.
func (c simdCase) operand(rng *graph.RNG, rows, width, zeroRowIn int) (a gemmA, src FeatSource, idx []int32, lo, hi int) {
	if c.form == 0 {
		f := simdMatrix(rng, rows, width, zeroRowIn)
		return gemmA{src: f, hi: width}, FS(f), nil, 0, width
	}
	lo, hi = 0, width
	if c.form >= 2 {
		lo, hi = 3, 3+width
	}
	f := simdMatrix(rng, rows/2+3, hi+2*lo, zeroRowIn)
	idx = make([]int32, rows)
	for i := range idx {
		idx[i] = int32(rng.Intn(f.Rows)) // fewer source rows than indices: repeats
	}
	src = FS(f)
	if c.form == 3 {
		src = benchFeatSource(f)
	}
	return gemmA{src: f, idx: idx, lo: lo, hi: hi, q: src.Q, qmask: src.QMask}, src, idx, lo, hi
}

// checkSIMDCase compares every dispatched kernel with its generic twin
// on one shape.
func checkSIMDCase(t testing.TB, c simdCase) {
	t.Helper()
	rng := graph.NewRNG(c.seed)

	// The panel kernel itself, on a window of a wider B (stride > n,
	// unaligned first column) and of a wider output row whose
	// neighbours must stay untouched.
	{
		const pad = 3
		bw := c.n + 2*pad
		arp := simdMatrix(rng, 1, c.k, 0).Data
		bd := simdMatrix(rng, c.k, bw, 0).Data
		got := simdMatrix(rng, 1, bw, 0).Data
		want := append([]float32(nil), got...)
		gemmPanelDense(got[pad:pad+c.n], arp, bd, bw, pad)
		gemmPanelDenseGeneric(want[pad:pad+c.n], arp, bd, bw, pad)
		bitsEqual(t, "gemmPanelDense", got, want)
	}

	// Forward entry points: c.m output rows, reduction over c.k. The
	// reference walks the same operand view row by row through the
	// generic panel kernel (splitting k into panels changes no bit: each
	// element's terms are still added in increasing k order).
	{
		a, src, idx, lo, hi := c.operand(rng, c.m, c.k, 6)
		b := simdMatrix(rng, c.k, c.n, 0)
		want := New(c.m, c.n)
		aw, scratch := a.withScratch()
		for i := 0; i < c.m; i++ {
			gemmPanelDenseGeneric(want.Row(i), aw.row(i), b.Data, c.n, 0)
		}
		Put(scratch)
		var got *Matrix
		switch c.form {
		case 0:
			got = MatMul(src.F, b)
		case 1:
			got = GatherMatMulSrc(src, idx, b)
		default:
			got = GatherMatMulSliceSrc(src, idx, lo, hi, b)
		}
		bitsEqual(t, "forward", got.Data, want.Data)
		Put(got)
	}

	// Backward: dst (c.m x c.n) += Aᵀ @ b over c.k rows. The range
	// kernel is compared on [lo, k) for a few lo, so that the 8/4/2/1
	// row blocks all start at different offsets; the destination starts
	// with −0 entries in it, which a wrongly skipped +0 term would flip.
	{
		a, src, idx, lo, hi := c.operand(rng, c.k, c.m, 16)
		b := simdMatrix(rng, c.k, c.n, 6)
		dst0 := simdMatrix(rng, c.m, c.n, 0)
		for _, from := range []int{0, 3} {
			if from >= c.k {
				continue
			}
			got, want := dst0.Clone(), dst0.Clone()
			aw, scratch := a.withScratch()
			tmatmulAccRange(got, aw, b, from, c.k)
			Put(scratch)
			aw, scratch = a.withScratch()
			tmatmulAccRangeGeneric(want, aw, b, from, c.k)
			Put(scratch)
			bitsEqual(t, fmt.Sprintf("tmatmulAccRange[%d,%d)", from, c.k), got.Data, want.Data)
		}
		{
			// The entry points, which split dst's rows across workers on
			// large inputs: each row still runs all k in order.
			got, want := dst0.Clone(), dst0.Clone()
			aw, scratch := a.withScratch()
			tmatmulAccRangeGeneric(want, aw, b, 0, c.k)
			Put(scratch)
			switch c.form {
			case 0:
				TMatMulAcc(got, src.F, b)
			case 1:
				GatherTMatMulAccSrc(got, src, idx, b)
			default:
				GatherTMatMulAccSliceSrc(got, src, idx, lo, hi, b)
			}
			bitsEqual(t, "backward", got.Data, want.Data)
		}
	}
}

// simdTable crosses the column counts around the 8-, 16- and 32-lane
// block edges with the reduction lengths around the 8-row block and
// gemmKC. The operand form is the visitor's to choose. The counts
// around the 16-lane edge come last, so every earlier case keeps its
// seed and its name.
func simdTable(visit func(simdCase)) {
	seed := uint64(1)
	for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 40, 128, 130, 15, 16, 17, 48, 64} {
		for _, k := range []int{1, 7, 8, 9, 127, 128, 129, 200} {
			// m walks through 1..40 so both the output-row loop inside
			// the backward kernel and the forward tile scheduler (inline
			// below 32 rows) see short, odd and long extents; four
			// consecutive seeds give m every residue mod 4, so each n
			// ends its row quads with 0, 1, 2 and 3 leftover rows.
			visit(simdCase{seed: seed, n: n, k: k, m: 1 + int(seed*7)%40})
			seed++
		}
	}
}

// TestSIMDQuadKernelMatchesGeneric compares the four-row panel kernel
// with four gemmPanelDenseGeneric calls, first on its own and then
// inside gemmTile on a column block narrower than the output.
func TestSIMDQuadKernelMatchesGeneric(t *testing.T) {
	requireAVX512(t)
	rng := graph.NewRNG(91)

	// Four rows that are windows of wider output rows, whose neighbours
	// must stay untouched, over a window of a wider B (stride > n,
	// unaligned first column).
	for _, n := range []int{15, 16, 17, 31, 32, 33, 48, 64, 70} {
		for _, k := range []int{1, 7, 128} {
			const pad = 3
			bw := n + 2*pad
			bd := simdMatrix(rng, k, bw, 0).Data
			a := simdMatrix(rng, 4, k, 0)
			got := simdMatrix(rng, 4, bw, 0)
			want := got.Clone()
			var or [4][]float32
			ar := [4][]float32{a.Row(0), a.Row(1), a.Row(2), a.Row(3)}
			for r := range or {
				or[r] = got.Row(r)[pad : pad+n]
				gemmPanelDenseGeneric(want.Row(r)[pad:pad+n], ar[r], bd, bw, pad)
			}
			gemmPanelQuad(&or, &ar, bd, bw, pad)
			bitsEqual(t, fmt.Sprintf("gemmPanelQuad n%d k%d", n, k), got.Data, want.Data)

			// The kernel itself takes every whole 16-column block.
			got = want.Clone()
			for r := range or {
				or[r] = got.Row(r)[pad : pad+n]
			}
			if done := gemmPanelQuadVec(&or, &ar, bd, bw, pad); done != n&^15 {
				t.Fatalf("n%d: the kernel did %d columns, want %d", n, done, n&^15)
			}
		}
	}

	// gemmTile on a column block narrower than n and a row band
	// starting at an odd row — B read in place at the block's offset
	// into its full rows — in every operand form, the int8 tier's among
	// them. The block's 61 columns are 48 for the kernel, 8 for
	// gemmRowK and 5 for the Go tail.
	const m, n, k = 43, 70, 133
	const i0, i1, j0, j1 = 1, 40, 5, 66
	for form := 0; form < 4; form++ {
		c := simdCase{form: form}
		a, _, _, _, _ := c.operand(rng, m, k, 6)
		b := simdMatrix(rng, k, n, 0)
		got := simdMatrix(rng, m, n, 0)
		want := got.Clone()
		aw, scratch := a.withScratch()
		for i := i0; i < i1; i++ {
			gemmPanelDenseGeneric(want.Row(i)[j0:j1], aw.row(i), b.Data, n, j0)
		}
		Put(scratch)
		gemmTile(got, a, b, i0, i1, j0, j1)
		bitsEqual(t, fmt.Sprintf("gemmTile form%d", form), got.Data, want.Data)
	}
}

// TestSIMDOctKernelMatchesGeneric compares the eight-row tile kernel of
// the weight gradient, and the Go loops that finish its last rows and
// columns, with tmatmulAccRangeGeneric — over the row counts around the
// 8-row tile, the column counts around the 16- and 32-column blocks, k
// past the prefetch distance and past one k-panel, and every operand
// form. The inputs hold
// what the merge mask must get exactly right: ±0 and NaN coefficients
// (a NaN is live, as in the Go loop's `a != 0`), a destination that
// starts with −0 entries (a +0 term added for a zero coefficient would
// flip them), and ±Inf in b on the k rows whose coefficients are all
// zero (an unmasked add would turn 0·Inf into NaN).
func TestSIMDOctKernelMatchesGeneric(t *testing.T) {
	requireOctKernel(t)
	rng := graph.NewRNG(97)
	nan := float32(math.NaN())
	for _, m := range []int{8, 9, 15, 16, 26, 64, 128} {
		for _, n := range []int{16, 17, 31, 32, 33, 48, 64} {
			for _, k := range []int{1, 7, 8, 129, 700} {
				for form := 0; form < 4; form++ {
					c := simdCase{n: n, k: k, m: m, form: form}
					a, src, idx, lo, hi := c.operand(rng, k, m, 16)
					// Two NaN coefficients: each makes one output row NaN
					// from its k on, so there are only ever a few.
					for range 2 {
						a.src.Data[rng.Intn(len(a.src.Data))] = nan
					}
					b := simdMatrix(rng, k, n, 0)
					aw, scratch := a.withScratch()
					for kk := 0; kk < k; kk++ {
						if !allZero(aw.row(kk)) {
							continue
						}
						for j := range b.Row(kk) {
							if rng.Intn(3) == 0 {
								b.Set(kk, j, float32(math.Inf(1-2*rng.Intn(2))))
							}
						}
					}
					Put(scratch)
					dst0 := simdMatrix(rng, m, n, 0)
					for i := range dst0.Data {
						if rng.Intn(4) == 0 {
							dst0.Data[i] = simdNegZero
						}
					}

					want := dst0.Clone()
					aw, scratch = a.withScratch()
					tmatmulAccRangeGeneric(want, aw, b, 0, k)
					Put(scratch)
					got := dst0.Clone()
					aw, scratch = a.withScratch()
					tmatmulAccRange(got, aw, b, 0, k)
					Put(scratch)
					bitsEqual(t, c.String(), got.Data, want.Data)

					// The kernel itself takes every whole octet and
					// 16-column block.
					aw, scratch = a.withScratch()
					m8, n16 := tmatmulAccOctVec(got, aw, b, 0, k)
					Put(scratch)
					if m8 != m&^7 || n16 != n&^15 {
						t.Fatalf("%v: the kernel did %d x %d, want %d x %d", c, m8, n16, m&^7, n&^15)
					}

					// The entry points, whose bands are whole octets.
					got = dst0.Clone()
					switch form {
					case 0:
						TMatMulAcc(got, src.F, b)
					case 1:
						GatherTMatMulAccSrc(got, src, idx, b)
					default:
						GatherTMatMulAccSliceSrc(got, src, idx, lo, hi, b)
					}
					bitsEqual(t, c.String()+" entry point", got.Data, want.Data)
				}
			}
		}
	}
}

func allZero(row []float32) bool {
	for _, v := range row {
		if v != 0 {
			return false
		}
	}
	return true
}

func TestSIMDKernelsMatchGeneric(t *testing.T) {
	requireVectorKernels(t)
	simdTable(func(c simdCase) {
		for c.form = 0; c.form < 4; c.form++ {
			t.Run(c.String(), func(t *testing.T) { checkSIMDCase(t, c) })
		}
	})
}

func FuzzSIMDMatchesGeneric(f *testing.F) {
	simdTable(func(c simdCase) {
		f.Add(c.seed, uint8(c.n), uint8(c.k), uint8(c.m), uint8(c.seed%4))
	})
	f.Fuzz(func(t *testing.T, seed uint64, n, k, m, form uint8) {
		requireVectorKernels(t)
		checkSIMDCase(t, simdCase{seed: seed, n: max(1, int(n)), k: max(1, int(k)), m: max(1, int(m)), form: int(form) % 4})
	})
}

// TestSIMDZeroCoefficientRowsKeepSignOfZero pins the one place where
// "skip a zero term" and "add it" differ in a bit: a −0 accumulator.
// Every destination element starts at −0, every b element is a zero
// whose sign makes a live term −0 (which keeps −0) and a zero
// coefficient's term +0 (which would flip it), and every third output
// row has one zero coefficient, at each of the eight positions in turn,
// between runs of all-live rows that send the kernel past it. The AVX2
// kernel must hand exactly those rows back to the zero-skipping code;
// the AVX-512 eight-row kernel (at n = 32 all its columns) must mask
// exactly those terms out.
func TestSIMDZeroCoefficientRowsKeepSignOfZero(t *testing.T) {
	requireVectorKernels(t)
	const m, k = 26, 8
	for _, cfg := range []struct {
		n             int
		live, zero, b float32
	}{
		{n: 41, live: -1, zero: 0, b: 0},                    // −1·+0 = −0, +0·+0 = +0
		{n: 41, live: 1, zero: simdNegZero, b: simdNegZero}, // 1·−0 = −0, −0·−0 = +0
		// n = 32: on AVX-512 the eight-row kernel takes every row but
		// the last two, every column, and decides the skips itself.
		{n: 32, live: -1, zero: 0, b: 0},
		{n: 32, live: 1, zero: simdNegZero, b: simdNegZero},
	} {
		n := cfg.n
		a := New(k, m)
		for i := range a.Data {
			a.Data[i] = cfg.live
		}
		for i := 2; i < m; i += 3 {
			a.Set((i/3)%k, i, cfg.zero)
		}
		b := New(k, n)
		for i := range b.Data {
			b.Data[i] = cfg.b
		}
		got := New(m, n)
		for i := range got.Data {
			got.Data[i] = simdNegZero
		}
		want := got.Clone()
		tmatmulAccRange(got, gemmA{src: a, hi: m}, b, 0, k)
		tmatmulAccRangeGeneric(want, gemmA{src: a, hi: m}, b, 0, k)
		bitsEqual(t, fmt.Sprintf("tmatmulAccRange n%d", n), got.Data, want.Data)
		for i, v := range want.Data {
			if math.Float32bits(v) != math.Float32bits(simdNegZero) {
				t.Fatalf("generic element %d = %#08x: the fixture no longer keeps −0", i, math.Float32bits(v))
			}
		}
	}
}
