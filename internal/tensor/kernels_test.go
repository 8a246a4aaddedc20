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
	if gemmPanelQuadVec(&or, &ar, &quadAhead{}, make([]float32, 16), 16, 0) == 0 {
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
// inside gemmTile on a column block narrower than the output, where it
// prefetches the next block's rows.
func TestSIMDQuadKernelMatchesGeneric(t *testing.T) {
	requireAVX512(t)
	rng := graph.NewRNG(91)

	// Four rows that are windows of wider output rows, whose neighbours
	// must stay untouched, over a window of a wider B (stride > n,
	// unaligned first column). The kernel prefetches the four A rows
	// themselves as it goes, which must change nothing.
	for _, n := range []int{15, 16, 17, 31, 32, 33, 48, 64, 70} {
		for _, k := range []int{1, 7, 128} {
			const pad = 3
			bw := n + 2*pad
			bd := simdMatrix(rng, k, bw, 0).Data
			a := simdMatrix(rng, 4, k, 0)
			var pf quadAhead
			(&gemmA{src: a, hi: k}).ahead(&pf, 0, 4, 0, k)
			got := simdMatrix(rng, 4, bw, 0)
			want := got.Clone()
			var or [4][]float32
			ar := [4][]float32{a.Row(0), a.Row(1), a.Row(2), a.Row(3)}
			for r := range or {
				or[r] = got.Row(r)[pad : pad+n]
				gemmPanelDenseGeneric(want.Row(r)[pad:pad+n], ar[r], bd, bw, pad)
			}
			gemmPanelQuad(&or, &ar, &pf, bd, bw, pad)
			bitsEqual(t, fmt.Sprintf("gemmPanelQuad n%d k%d", n, k), got.Data, want.Data)

			// The kernel itself takes every whole 16-column block.
			got = want.Clone()
			for r := range or {
				or[r] = got.Row(r)[pad : pad+n]
			}
			if done := gemmPanelQuadVec(&or, &ar, &pf, bd, bw, pad); done != n&^15 {
				t.Fatalf("n%d: the kernel did %d columns, want %d", n, done, n&^15)
			}
		}
	}

	// gemmTile on a column block narrower than n — B read in place at
	// the block's offset into its full rows — in every operand form:
	// forms 2 and 3 read a column window lo > 0 of each source row, as
	// NFP's shard does, and form 3 serves every other source row from
	// the int8 tier, so look-ahead blocks mix tier and fp32 rows. The
	// block's 61 columns are 48 for the kernel, 8 for gemmRowK and 5 for
	// the Go tail; k = 133 is two k-panels, the second 5 deep. The row
	// bands start at odd and even rows, and the look-ahead of their last
	// block runs one row past the band (1–40), wholly past the band
	// inside the matrix (6–14), and wholly past the matrix's last row
	// (3–43).
	const m, n, k = 43, 70, 133
	const j0, j1 = 5, 66
	for _, band := range [][2]int{{1, 40}, {6, 14}, {3, m}} {
		i0, i1 := band[0], band[1]
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
			bitsEqual(t, fmt.Sprintf("gemmTile rows %d-%d form%d", i0, i1, form), got.Data, want.Data)
		}
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

// requireRowAccKernel skips unless the AVX-512 row accumulation really
// runs, so its comparisons never pass by running rowAccGo against
// itself.
func requireRowAccKernel(t testing.TB) {
	t.Helper()
	if !rowAccKernelRuns() {
		t.Skipf("no row accumulation kernel on this platform (GOARCH=%s; on amd64 it needs AVX-512F and OS support for the ZMM state)", runtime.GOARCH)
	}
}

func rowAccKernelRuns() bool {
	return rowAccVec(make([]float32, 16), &rowTerms{src: make([]float32, 16), ss: 16, m: 1}) > 0
}

// rowAccSpecials are simdSpecials plus what only an add can get wrong in
// its operand order: NaNs of both signs and several payloads (when two
// meet, the first source's survives; 0·Inf and Inf−Inf make the CPU's
// own −NaN) and both infinities.
var rowAccSpecials = append([]float32{
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00123),
	math.Float32frombits(0x7f800001), math.Float32frombits(0x7fc0abcd),
	float32(math.Inf(1)), float32(math.Inf(-1)),
}, simdSpecials...)

// rowAccValues draws n unit normals with about a sixth replaced by
// rowAccSpecials. Under the race detector the Go loop is compiled with
// its instrumentation and the compiler picks other operand orders, so
// there only the finite specials go in: bit-identity with NaNs is a
// property of the default build's code, which the kernel copies.
func rowAccValues(rng *graph.RNG, n int) []float32 {
	specials := rowAccSpecials
	if raceEnabled {
		specials = simdSpecials
	}
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.NormFloat32()
		if rng.Intn(6) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		}
	}
	return v
}

// TestSIMDRowAccMatchesGeneric compares the row accumulation kernel
// (rowAccVec, then rowAccGo on the columns it leaves) with rowAccGo on
// every column, by math.Float32bits: widths on and off the 16-column
// blocks and past one 128-column pass, head widths 16, 32, 48 and 64
// and the unweighted sum, 0 to 33 edges with repeated rows, indexed and
// nil (consecutive) rows and weights, and NaN, ±Inf, ±0 and denormals
// in the row, the sources and the weights.
func TestSIMDRowAccMatchesGeneric(t *testing.T) {
	requireRowAccKernel(t)
	rng := graph.NewRNG(46)
	const nSrc, nW = 40, 35
	for _, width := range []int{16, 17, 32, 48, 128, 144} {
		for _, dh := range []int{0, 16, 32, 48, 64} { // 0: unweighted
			for _, m := range []int{0, 1, 7, 33} {
				for form := 0; form < 4; form++ { // bit 0: rows indexed, bit 1: weights indexed
					ss := width + 3
					tr := rowTerms{src: rowAccValues(rng, nSrc*ss), ss: ss, m: m}
					if form&1 != 0 {
						tr.idx = make([]int32, m)
						for e := range tr.idx {
							tr.idx[e] = int32(rng.Intn(nSrc))
							if e > 0 && rng.Intn(3) == 0 {
								tr.idx[e] = tr.idx[e-1]
							}
						}
					}
					if dh > 0 {
						tr.dh, tr.ws = dh, (width+dh-1)/dh+1
						tr.w = rowAccValues(rng, nW*tr.ws)
						if form&2 != 0 {
							tr.wi = make([]int32, m)
							for e := range tr.wi {
								tr.wi[e] = int32(rng.Intn(nW))
							}
						}
					}
					name := fmt.Sprintf("width%d_dh%d_m%d_form%d", width, dh, m, form)
					want := rowAccValues(rng, width)
					got := append([]float32(nil), want...)
					rowAccGo(want, &tr, 0)
					c := rowAccVec(got, &tr)
					if wc := width &^ 15; m > 0 && c != wc {
						t.Fatalf("%s: kernel did %d columns, want %d", name, c, wc)
					}
					rowAccGo(got, &tr, c)
					bitsEqual(t, name, got, want)
				}
			}
		}
	}
}

// TestRowAccOutOfRangeIndexPanics checks that a row or weight index out
// of range, or negative, panics on the kernel's path (rowAccVec checks
// every index before the kernel reads through it; where there is no
// kernel that path is skipped) and on the Go loop's, and through
// SegmentAggFused at a width the kernel takes.
func TestRowAccOutOfRangeIndexPanics(t *testing.T) {
	kernel := rowAccKernelRuns()
	const rows, width = 5, 32
	// src has spare capacity past its rows, as a pooled matrix would.
	src := make([]float32, rows*width, 4*rows*width)
	w := make([]float32, 2*rows)
	for _, bad := range []int32{rows, -1} {
		for _, tr := range []rowTerms{
			{src: src, ss: width, idx: []int32{0, bad}, m: 2},
			{src: src, ss: width, idx: []int32{0, bad}, m: 2, w: w, ws: 2, dh: 16},
			{src: src, ss: width, idx: []int32{0, 1}, m: 2, w: w, wi: []int32{1, bad}, ws: 2, dh: 16},
		} {
			name := fmt.Sprintf("index %d weighted %v", bad, tr.w != nil)
			if kernel {
				mustPanic(t, name+" kernel", func() {
					rowAccVec(make([]float32, width), &tr)
				})
			}
			mustPanic(t, name+" Go loop", func() { rowAccGo(make([]float32, width), &tr, 0) })
		}
		mustPanic(t, fmt.Sprintf("SegmentAggFused index %d", bad), func() {
			SegmentAggFused([]int64{0, 2}, []int32{0, bad}, FromData(rows, width, src), false, false)
		})
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	f()
}

// tmatmulAccRangeGeneric is tmatmulAccRange in portable Go only — the
// reference the vector kernels are tested against bit for bit.
func tmatmulAccRangeGeneric(dst *Matrix, a gemmA, b *Matrix, lo, hi int) {
	tmatmulAccRows(dst, a, b, lo, hi, false)
}
