package tensor

// Dispatch to the AVX2 and AVX-512 micro-kernels of kernels_amd64.s.
// Which path runs is decided once, at init, by what the CPU and the OS
// report — an observation about the platform, not an option: there is
// no flag, environment variable or exported symbol that selects it, and
// all paths produce the same bits (see the .s file), so nothing outside
// this package can tell them apart except by the clock.
//
// The kernels take raw pointers. Each wrapper below first slices (and
// so bounds-checks) the full extent its kernel will touch.

//go:noescape
func gemmRowK(or *float32, n int, a *float32, k int, b *float32, bw int)

//go:noescape
func gemmQuadK(or *[4]*float32, n int, a *[4]*float32, k int, b *float32, bw int, pf *quadAhead)

//go:noescape
func tmatmulAcc8(dst *float32, i, m, n, ds int, ap *[8]*float32, b *float32, bw int) int

//go:noescape
func tmatmulAccOct(dst *float32, m, n, ds int, tbl **float32, k int, b *float32, bw int)

//go:noescape
func rowAcc(dst *float32, n int, src *float32, ss int, idx *int32, m int, w *float32, wi *int32, ws, hb int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM state across context switches (OSXSAVE set and XCR0 enabling both
// the SSE and AVX state components).
var hasAVX2 = func() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		xcr0YMM = 0b110   // XCR0: SSE and AVX state
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&xcr0YMM != xcr0YMM {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}()

// hasAVX512 reports whether, on top of hasAVX2, the CPU implements
// AVX-512F and the OS saves the whole ZMM state (XCR0 enabling the SSE,
// AVX, opmask, ZMM_Hi256 and Hi16_ZMM components).
var hasAVX512 = func() bool {
	const (
		avx512f = 1 << 16 // CPUID.(7,0):EBX
		xcr0ZMM = 0xE6    // XCR0 bits 1, 2, 5, 6 and 7
	)
	if !hasAVX2 {
		return false
	}
	if lo, _ := xgetbv(); lo&xcr0ZMM != xcr0ZMM {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx512f != 0
}()

// gemmPanelVec is the vector-width form of gemmPanelDense. It computes
// the leading len(or)&^7 output columns and returns how many it did
// (0 when the CPU lacks AVX2); the caller finishes the rest.
//
//apt:hotpath
func gemmPanelVec(or, arp, bd []float32, bw, bj int) int {
	n, k := len(or)&^7, len(arp)
	if !hasAVX2 || n == 0 || k == 0 {
		return 0
	}
	// B rows 0..k-1, columns [bj, bj+n): the first element is checked by
	// &bd[bj], the last here.
	_ = bd[bj+(k-1)*bw+n-1]
	gemmRowK(&or[0], n, &arp[0], k, &bd[bj], bw)
	return n
}

// gemmPanelQuadVec is gemmPanelVec for four output rows over one
// panel: or[r] += ar[r] @ panel for r in [0, 4), all four rows of one
// width and one depth. It computes the leading width&^15 columns of
// every row and returns how many it did (0 without AVX-512); the caller
// finishes the rest. Meanwhile the kernel prefetches the spans of pf.
//
//apt:hotpath
func gemmPanelQuadVec(or, ar *[4][]float32, pf *quadAhead, bd []float32, bw, bj int) int {
	n, k := len(or[0])&^15, len(ar[0])
	if !hasAVX512 || n == 0 || k == 0 {
		return 0
	}
	_ = bd[bj+(k-1)*bw+n-1]
	var op, ap [4]*float32
	for r := range op {
		_, _ = or[r][n-1], ar[r][k-1]
		op[r], ap[r] = &or[r][0], &ar[r][0]
	}
	gemmQuadK(&op, n, &ap, k, &bd[bj], bw, pf)
	return n
}

// tmatmulAcc8Vec is the vector-width form of the all-coefficients-live
// branch of tmatmulAccRows' eight-row block. Starting at output row i
// it applies dst[i] += Σ_r ar[r][i]·b8[r*bw:][:n] (r increasing) to
// consecutive rows while all eight coefficients are nonzero, and
// returns the first row it left untouched: m, or a row with a zero
// coefficient for the caller's zero-skipping code. dst row i starts at
// dd[i*ds]. Without AVX2 it returns i.
//
//apt:hotpath
func tmatmulAcc8Vec(dd []float32, i, m, n, ds int, ar *[8][]float32, b8 []float32, bw int) int {
	if !hasAVX2 || n == 0 {
		return i
	}
	// dst rows [i, m) of width n at stride ds, eight b rows of width n
	// at stride bw, and elements [i, m) of each A row (the caller's loop
	// has i < m).
	_ = dd[(m-1)*ds+n-1]
	_ = b8[7*bw+n-1]
	var ap [8]*float32
	for r := range ap {
		ap[r] = &ar[r][:m][0]
	}
	return tmatmulAcc8(&dd[0], i, m, n, ds, &ap, &b8[0], bw)
}

// octPrefetch is how far ahead, in k rows, tmatmulAccOct prefetches a
// tile's coefficients (OCTPF in kernels_amd64.s). The row table carries
// that many extra entries, so the look-ahead never reads past it.
const octPrefetch = 16

// octKC is the k-panel of the tile kernel. A panel's b rows and
// coefficient lines (for n = 32, 32 KiB of b and 16 KiB of coefficients
// per tile pair) stay cached while every tile of a column block streams
// through them, where a whole long reduction would fall out of L2.
const octKC = 256

// tmatmulAccOctVec is tmatmulAccRows over k rows [lo, hi) for the
// leading dst.Rows&^7 output rows and dst.Cols&^15 columns, eight rows
// at a time through the AVX-512 tile kernel; it returns that extent,
// (0, 0) when it did nothing (no AVX-512, or fewer than 8 rows or 16
// columns), and the caller finishes the rest.
//
// It runs the kernel once per k-panel of octKC rows, panels in
// increasing k, so each element still adds its terms in k order. Per
// panel the kernel reads the coefficient rows through a table of their
// addresses on the stack (gemmA.rowTable): fp32 rows in place, int8-tier
// rows dequantized once each into a pooled panel-sized buffer.
//
//apt:hotpath
func tmatmulAccOctVec(dst *Matrix, a gemmA, b *Matrix, lo, hi int) (m8, n16 int) {
	m8, n16, k := dst.Rows&^7, dst.Cols&^15, hi-lo
	if !hasAVX512 || m8 == 0 || n16 == 0 || k <= 0 {
		return 0, 0
	}
	var deq *Matrix
	if nq := a.tierRows(lo, hi); nq > 0 {
		deq = Get(min(nq, octKC), m8)
	}
	var tbl [octKC + octPrefetch]*float32
	n, bw := dst.Cols, b.Cols
	_ = dst.Data[(m8-1)*n+n16-1]
	_ = b.Data[(hi-1)*bw+n16-1]
	for k0 := lo; k0 < hi; k0 += octKC {
		kp := min(octKC, hi-k0)
		a.rowTable(tbl[:kp], k0, m8, deq)
		for t := kp; t < kp+octPrefetch; t++ {
			tbl[t] = tbl[kp-1]
		}
		tmatmulAccOct(&dst.Data[0], m8, n16, n, &tbl[0], kp, &b.Data[k0*bw], bw)
	}
	Put(deq)
	return m8, n16
}

// rowAccVec is rowAccum's AVX-512 kernel: it adds t's terms onto the
// leading len(dst)&^15 columns of dst and returns how many it did (0
// without AVX-512, without edges, or when a weighted t's head width is
// not a multiple of 16); rowAccGo finishes the rest.
//
//apt:hotpath
func rowAccVec(dst []float32, t *rowTerms) int {
	n, m := len(dst)&^15, t.m
	if !hasAVX512 || n == 0 || m == 0 || t.w != nil && t.dh%16 != 0 {
		return 0
	}
	// Every row and weight index the kernel reads is checked here: the
	// largest, as unsigned so a negative one is the largest of all, must
	// reach in bounds the last element the kernel touches.
	var ip, wp *int32
	last := m - 1
	if t.idx != nil {
		last, ip = maxIndex(t.idx[:m]), &t.idx[0]
	}
	_ = t.src[last*t.ss+n-1]
	var wq *float32
	if t.w != nil {
		last = m - 1
		if t.wi != nil {
			last, wp = maxIndex(t.wi[:m]), &t.wi[0]
		}
		_ = t.w[last*t.ws+int(uint32(n-1)/uint32(t.dh))]
		wq = &t.w[0]
	}
	rowAcc(&dst[0], n, &t.src[0], t.ss, ip, m, wq, wp, t.ws, t.dh/16)
	return n
}

// maxIndex returns the largest of idx as unsigned values: a negative
// index comes back as a huge one, which no bounds check lets through.
//
//apt:hotpath
func maxIndex(idx []int32) int {
	var mx uint32
	for _, r := range idx {
		mx = max(mx, uint32(r))
	}
	return int(mx)
}
