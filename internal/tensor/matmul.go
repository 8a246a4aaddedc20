package tensor

import (
	"runtime"
	"sync"
	"unsafe"
)

// Dense GEMM kernels, cache-blocked and fused.
//
// Every variant preserves one invariant: for each output element, the
// k-index terms are accumulated in strictly increasing k order with a
// single accumulator. Cache blocking only reorders work ACROSS output
// elements (row blocks, column blocks, k-panels processed low-to-high),
// never the summation order WITHIN one element, so the engine's
// bit-identical-logits guarantee survives tiling. The k-unrolled inner
// loops keep the adds sequential per element ((((s+t0)+t1)+t2)+t3),
// which is the same operation sequence as four separate iterations —
// multi-accumulator reductions would reassociate and are not used.

// parallelRows runs pass(op, lo, hi) over row ranges that cover
// [0, rows) — the one fan-out of every parallel kernel. On one proc, or
// below 2·minRowsPerTask rows, it runs one range inline; otherwise up
// to GOMAXPROCS goroutines take at least minRowsPerTask rows each, every
// range but the last a multiple of align. op travels by value and only
// the parallel branch copies it to the heap, so the inline path
// allocates nothing however large op grows. A pass writes only its own
// rows, so the split moves no bit.
//
//apt:hotpath
func parallelRows[T any](op T, rows, minRowsPerTask, align int, pass func(op T, lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers == 1 || rows < 2*minRowsPerTask {
		pass(op, 0, rows)
		return
	}
	workers = min(workers, rows/minRowsPerTask)
	shared := op
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	chunk = (chunk + align - 1) / align * align
	for lo := 0; lo < rows; lo += chunk {
		wg.Add(1)
		//apt:allow hotalloc the fan-out itself: one goroutine per range, never on the single-proc path
		go func(lo, hi int) {
			defer wg.Done()
			pass(shared, lo, hi)
		}(lo, min(lo+chunk, rows))
	}
	wg.Wait()
}

// Blocking parameters. gemmKC bounds the k-panel so a panel of B rows
// stays cache-resident across a row band; gemmNB bounds the output
// column block so one block of B columns fits comfortably in L1/L2
// alongside the A row.
const (
	gemmKC = 128
	gemmNB = 256
)

// gemmA is the left-operand view of the blocked GEMM: plain matrix
// rows, gathered rows (row r reads src[idx[r]]), or a column window
// [lo, hi) of either — the gather- and shard-fused forms share one
// kernel body instead of materializing copies. When q/qmask are set,
// rows flagged in qmask are served by dequantizing the int8 tier into
// a rotating scratch slot instead of reading src.
type gemmA struct {
	src *Matrix
	idx []int32 // nil: row r is src row r
	lo  int     // column window into each source row
	hi  int

	q     *QuantMatrix // optional int8 warm tier
	qmask []uint64     // bitset over source rows served from q
	// scratch holds gemmAScratchSlots dequant rows of width hi-lo; a
	// returned row stays valid for the next gemmAScratchSlots-1 row
	// calls (the widest kernel holds 8 rows live). Each worker must
	// own its scratch (withScratch) — it is mutable per-call state.
	scratch []float32
	slot    int
}

// gemmAScratchSlots is the number of rotating dequant rows; must cover
// the widest kernel's simultaneously live row count (8-wide unrolls)
// and stay a power of two.
const gemmAScratchSlots = 8

// withScratch returns a copy of g owning a pooled dequant scratch (nil
// matrix when no tier is configured — the fp32 path pays nothing).
// The caller must Put the returned matrix when the kernel finishes.
//
//apt:hotpath
func (g gemmA) withScratch() (gemmA, *Matrix) {
	if g.qmask == nil {
		return g, nil
	}
	m := Get(gemmAScratchSlots, g.hi-g.lo)
	g.scratch = m.Data
	g.slot = 0
	return g, m
}

// row is split so its fp32 fast path stays under the inlining budget;
// the dequant slow path lives in dequantRow.
//
//apt:hotpath
func (g *gemmA) row(r int) []float32 {
	if g.idx != nil {
		r = int(g.idx[r])
	}
	if g.qmask != nil && g.qmask[r>>6]&(1<<(uint(r)&63)) != 0 {
		return g.dequantRow(r)
	}
	base := r * g.src.Cols
	return g.src.Data[base+g.lo : base+g.hi]
}

// dequantRow serves source row r from the int8 tier, dequantized into
// the next rotating scratch slot.
//
//go:noinline
//apt:hotpath
func (g *gemmA) dequantRow(r int) []float32 {
	w := g.hi - g.lo
	o := g.slot * w
	g.slot = (g.slot + 1) & (gemmAScratchSlots - 1)
	dst := g.scratch[o : o+w]
	g.dequantInto(dst, r)
	return dst
}

// dequantInto writes source row r's int8-tier columns [lo, lo+len(dst))
// dequantized into dst.
//
//apt:hotpath
func (g *gemmA) dequantInto(dst []float32, r int) {
	q := g.q
	qr := q.Data[r*q.Cols+g.lo : r*q.Cols+g.lo+len(dst)]
	s, z := q.Scale[r], q.Zero[r]
	j := 0
	// Four independent convert+FMA chains per iteration keep the int8
	// loads and CVTs pipelined instead of serializing on one chain.
	for ; j+3 < len(qr); j += 4 {
		dst[j] = s*float32(qr[j]) + z
		dst[j+1] = s*float32(qr[j+1]) + z
		dst[j+2] = s*float32(qr[j+2]) + z
		dst[j+3] = s*float32(qr[j+3]) + z
	}
	for ; j < len(qr); j++ {
		dst[j] = s*float32(qr[j]) + z
	}
}

// tierRows counts the rows in [lo, hi) that the int8 tier serves.
func (g *gemmA) tierRows(lo, hi int) int {
	if g.qmask == nil {
		return 0
	}
	nq := 0
	for r := lo; r < hi; r++ {
		if g.inTier(g.srcRow(r)) {
			nq++
		}
	}
	return nq
}

// rowTable points tbl[t] at the first w elements of row lo+t — what
// row(lo+t) returns — for every t. fp32 rows are read in place;
// int8-tier rows are dequantized into consecutive rows of deq, which
// must have one for each.
//
//apt:hotpath
func (g *gemmA) rowTable(tbl []*float32, lo, w int, deq *Matrix) {
	q := 0
	for t := range tbl {
		r := g.srcRow(lo + t)
		var row []float32
		if g.inTier(r) {
			row = deq.Row(q)
			g.dequantInto(row, r)
			q++
		} else {
			base := r*g.src.Cols + g.lo
			row = g.src.Data[base : base+g.hi-g.lo]
		}
		tbl[t] = &row[:w][0]
	}
}

// quadAhead is where the four rows gemmTile hands the four-row kernel
// next lie: row t's bytes are [start[t], end[t]) with start[t] rounded
// down to its cache line, and the kernel prefetches them while it
// computes the current rows. A zero span prefetches nothing. The
// addresses are only ever prefetched, never dereferenced, so a stale
// one costs a wasted line, not a fault.
type quadAhead struct{ start, end [4]uintptr }

// gemmAhead is how many rows past a four-row block gemmTile's
// prefetch looks: one block, so a block's rows arrive while the block
// before it computes. Tuned with BenchmarkGatherMatMulLayer0, like
// octPrefetch.
const gemmAhead = 4

// ahead sets pf to where rows [r, r+4) keep the columns [k0, k1) of
// their window — where row() reads them, without dequantizing: an fp32
// row's floats in src, an int8-tier row's bytes in q. Rows at or past
// end keep the zero span pf starts with.
//
//apt:hotpath
func (g *gemmA) ahead(pf *quadAhead, r, end, k0, k1 int) {
	for t := range pf.start {
		if r+t >= end {
			return
		}
		s := g.srcRow(r + t)
		var p unsafe.Pointer
		n := k1 - k0
		if g.inTier(s) {
			p = unsafe.Pointer(&g.q.Data[s*g.q.Cols+g.lo+k0])
		} else {
			p, n = unsafe.Pointer(&g.src.Data[s*g.src.Cols+g.lo+k0]), 4*n
		}
		pf.start[t], pf.end[t] = uintptr(p)&^63, uintptr(p)+uintptr(n)
	}
}

// inTier reports whether source row r is served by the int8 tier.
func (g *gemmA) inTier(r int) bool {
	return g.qmask != nil && g.qmask[r>>6]&(1<<(uint(r)&63)) != 0
}

// srcRow is the source row that row r reads.
func (g *gemmA) srcRow(r int) int {
	if g.idx != nil {
		return int(g.idx[r])
	}
	return r
}

func (g gemmA) k() int { return g.hi - g.lo }

// gemmPanelDense accumulates or[j] += Σ_kk arp[kk] * B[kk][j] over one
// k-panel, k increasing, every term added (a zero coefficient is
// multiplied like any other, so 0·Inf is NaN as in plain matmul). arp is
// the A-row slice aligned with the panel; bd holds the panel's B rows
// starting at its first row with stride bw, offset bj selecting the
// output column window. The vector kernel takes the leading multiple
// of eight columns where the platform has one; the Go loop takes the
// rest, which is every column elsewhere. Columns are independent, so
// the split changes no bit.
//
//apt:hotpath
func gemmPanelDense(or, arp, bd []float32, bw, bj int) {
	if done := gemmPanelVec(or, arp, bd, bw, bj); done < len(or) {
		gemmPanelDenseGeneric(or[done:], arp, bd, bw, bj+done)
	}
}

// gemmPanelDenseGeneric is gemmPanelDense in portable Go — the
// implementation on platforms without a vector kernel and the reference
// the vector kernel is tested against bit for bit. The 8-wide (then
// 4-wide) k-unroll amortizes the or[] load/store over eight fused
// terms; per element the adds remain sequential in k order, so the
// association matches eight separate iterations.
//
//apt:hotpath
func gemmPanelDenseGeneric(or, arp, bd []float32, bw, bj int) {
	n := len(or)
	kk := 0
	for ; kk+7 < len(arp); kk += 8 {
		a0, a1, a2, a3 := arp[kk], arp[kk+1], arp[kk+2], arp[kk+3]
		a4, a5, a6, a7 := arp[kk+4], arp[kk+5], arp[kk+6], arp[kk+7]
		o := kk*bw + bj
		b0 := bd[o : o+n]
		b1 := bd[o+bw : o+bw+n]
		b2 := bd[o+2*bw : o+2*bw+n]
		b3 := bd[o+3*bw : o+3*bw+n]
		b4 := bd[o+4*bw : o+4*bw+n]
		b5 := bd[o+5*bw : o+5*bw+n]
		b6 := bd[o+6*bw : o+6*bw+n]
		b7 := bd[o+7*bw : o+7*bw+n]
		// Two output columns per pass: each column's adds stay in k
		// order (bit-identical), but the two accumulator chains are
		// independent, hiding the FP add latency the single chain
		// serializes on.
		j := 0
		for ; j+1 < n; j += 2 {
			s0, s1 := or[j], or[j+1]
			s0 += a0 * b0[j]
			s1 += a0 * b0[j+1]
			s0 += a1 * b1[j]
			s1 += a1 * b1[j+1]
			s0 += a2 * b2[j]
			s1 += a2 * b2[j+1]
			s0 += a3 * b3[j]
			s1 += a3 * b3[j+1]
			s0 += a4 * b4[j]
			s1 += a4 * b4[j+1]
			s0 += a5 * b5[j]
			s1 += a5 * b5[j+1]
			s0 += a6 * b6[j]
			s1 += a6 * b6[j+1]
			s0 += a7 * b7[j]
			s1 += a7 * b7[j+1]
			or[j] = s0
			or[j+1] = s1
		}
		for ; j < n; j++ {
			s := or[j]
			s += a0 * b0[j]
			s += a1 * b1[j]
			s += a2 * b2[j]
			s += a3 * b3[j]
			s += a4 * b4[j]
			s += a5 * b5[j]
			s += a6 * b6[j]
			s += a7 * b7[j]
			or[j] = s
		}
	}
	for ; kk+3 < len(arp); kk += 4 {
		a0, a1, a2, a3 := arp[kk], arp[kk+1], arp[kk+2], arp[kk+3]
		o := kk*bw + bj
		b0 := bd[o : o+n]
		b1 := bd[o+bw : o+bw+n]
		b2 := bd[o+2*bw : o+2*bw+n]
		b3 := bd[o+3*bw : o+3*bw+n]
		for j := range or {
			s := or[j]
			s += a0 * b0[j]
			s += a1 * b1[j]
			s += a2 * b2[j]
			s += a3 * b3[j]
			or[j] = s
		}
	}
	for ; kk < len(arp); kk++ {
		av := arp[kk]
		o := kk*bw + bj
		br := bd[o : o+n]
		for j := range or {
			or[j] += av * br[j]
		}
	}
}

// gemmPanelQuad is gemmPanelDense for four output rows over one panel.
// The four-row vector kernel takes the leading multiple of sixteen
// columns of all four where the platform has one, prefetching pf's
// spans as it goes; each row's remaining columns go through
// gemmPanelDense. Rows and columns are independent, so neither split
// changes a bit.
//
//apt:hotpath
func gemmPanelQuad(or, ar *[4][]float32, pf *quadAhead, bd []float32, bw, bj int) {
	done := gemmPanelQuadVec(or, ar, pf, bd, bw, bj)
	for r := range or {
		if done < len(or[r]) {
			gemmPanelDense(or[r][done:], ar[r], bd, bw, bj+done)
		}
	}
}

// gemmTile computes one output tile [i0,i1) x [j0,j1) of out += A @ b,
// k-panels low-to-high.
//
//apt:hotpath
func gemmTile(out *Matrix, a gemmA, b *Matrix, i0, i1, j0, j1 int) {
	// Each tile invocation owns its dequant scratch: tiles may run on
	// separate goroutines and row() mutates the slot cursor.
	a, aScratch := a.withScratch()
	k, n := a.k(), out.Cols
	for k0 := 0; k0 < k; k0 += gemmKC {
		k1 := k0 + gemmKC
		if k1 > k {
			k1 = k
		}
		bd := b.Data[k0*n:]
		i := i0
		if hasAVX512 && j1-j0 >= 16 {
			// Four rows per call share each B load; the four A rows
			// stay live together, which the dequant scratch covers.
			// The gathered rows come from anywhere in the source, so
			// the kernel prefetches the next block's while it runs.
			for ; i+3 < i1; i += 4 {
				or := [4][]float32{out.Row(i)[j0:j1], out.Row(i + 1)[j0:j1], out.Row(i + 2)[j0:j1], out.Row(i + 3)[j0:j1]}
				ar := [4][]float32{a.row(i)[k0:k1], a.row(i + 1)[k0:k1], a.row(i + 2)[k0:k1], a.row(i + 3)[k0:k1]}
				var pf quadAhead
				a.ahead(&pf, i+gemmAhead, i1, k0, k1)
				gemmPanelQuad(&or, &ar, &pf, bd, n, j0)
			}
		}
		for ; i < i1; i++ {
			gemmPanelDense(out.Row(i)[j0:j1], a.row(i)[k0:k1], bd, n, j0)
		}
	}
	Put(aScratch)
}

// gemmBand computes the output rows [i0, i1) of out += A @ b, one
// column block after another.
//
//apt:hotpath
func gemmBand(out *Matrix, a gemmA, b *Matrix, i0, i1 int) {
	n := out.Cols
	for j0 := 0; j0 < n; j0 += gemmNB {
		gemmTile(out, a, b, i0, i1, j0, min(j0+gemmNB, n))
	}
}

// gemmJob is one GEMM call's operands, handed to parallelRows by value.
type gemmJob struct {
	out *Matrix
	a   gemmA
	b   *Matrix
}

// gemm is gemmBand over out's rows [i0, i1).
//
//apt:hotpath
func (j gemmJob) gemm(i0, i1 int) { gemmBand(j.out, j.a, j.b, i0, i1) }

// tmatmulAcc is tmatmulAccBand over out's rows [r0, r1).
//
//apt:hotpath
func (j gemmJob) tmatmulAcc(r0, r1 int) { tmatmulAccBand(j.out, j.a, j.b, r0, r1) }

// gemmInto computes out += A @ b in row bands, each walking the column
// blocks; parallelRows splits the rows across goroutines when there are
// enough (at least 32) and more than one proc.
//
//apt:hotpath
func gemmInto(out *Matrix, a gemmA, b *Matrix) {
	if a.k() != b.Rows {
		panic("tensor: MatMul inner dimension mismatch")
	}
	if out.Rows == 0 || out.Cols == 0 {
		return
	}
	parallelRows(gemmJob{out, a, b}, out.Rows, 16, 4, gemmJob.gemm)
}

// MatMul returns a @ b (a: m x k, b: k x n). The result is pool-backed
// (see Get/Put); callers that discard it may Put it back.
//
//apt:hotpath
func MatMul(a, b *Matrix) *Matrix {
	out := Get(a.Rows, b.Cols)
	gemmInto(out, gemmA{src: a, hi: a.Cols}, b)
	return out
}

// MatMulT returns a @ bᵀ (a: m x k, b: n x k).
//
//apt:hotpath
func MatMulT(a, b *Matrix) *Matrix {
	return MatMulTSlice(a, 0, a.Cols, b)
}

// MatMulTSlice returns a[:, lo:hi] @ bᵀ (b: n x (hi-lo)) — one head's
// input gradient read from its column band of a packed matrix. It runs
// as MatMul against a pooled transposed copy of b: per element both
// forms are the one dot product ((+0 + a₀b₀) + a₁b₁) + … in k order,
// every term added, and the vector kernel's lanes are output columns
// (columns of bᵀ), so the blocked GEMM changes no bit.
//
//apt:hotpath
func MatMulTSlice(a *Matrix, lo, hi int, b *Matrix) *Matrix {
	if hi-lo != b.Cols {
		panic("tensor: MatMulT inner dimension mismatch")
	}
	bt := Get(b.Cols, b.Rows)
	for j := 0; j < b.Rows; j++ {
		for k, v := range b.Row(j) {
			bt.Data[k*b.Rows+j] = v
		}
	}
	out := Get(a.Rows, b.Rows)
	gemmInto(out, gemmA{src: a, lo: lo, hi: hi}, bt)
	Put(bt)
	return out
}

// matVecSlice writes dst[i] = a[from+i][lo:hi] · v for i < len(dst) —
// the n = 1 product MatMul(a[:, lo:hi], v) without a one-column GEMM
// panel. Each row's sum starts at +0 and adds its terms in k order, as
// the GEMM's does; four rows run interleaved for ILP, each with its own
// single accumulator, so no row's sum is reordered.
//
//apt:hotpath
func matVecSlice(dst []float32, a *Matrix, from, lo, hi int, v []float32) {
	k := hi - lo
	v = v[:k]
	ad, c := a.Data[from*a.Cols:], a.Cols
	i := 0
	for ; i+3 < len(dst); i += 4 {
		r0 := ad[i*c+lo:][:k]
		r1 := ad[(i+1)*c+lo:][:k]
		r2 := ad[(i+2)*c+lo:][:k]
		r3 := ad[(i+3)*c+lo:][:k]
		var s0, s1, s2, s3 float32
		for kk, vk := range v {
			s0 += r0[kk] * vk
			s1 += r1[kk] * vk
			s2 += r2[kk] * vk
			s3 += r3[kk] * vk
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < len(dst); i++ {
		r := ad[i*c+lo:][:k]
		var s float32
		for kk, vk := range v {
			s += r[kk] * vk
		}
		dst[i] = s
	}
}

// tmatmulAccMinWork is the multiply-add count (k·m·n) each worker of the
// transposed accumulate gets at least; below twice it, it runs inline.
const tmatmulAccMinWork = 1 << 15

// TMatMulAcc accumulates dst += aᵀ @ b (a: k x m, b: k x n, dst: m x n)
// — the weight-gradient kernel (Xᵀ @ dY) writing straight into the
// gradient buffer, eliminating the scratch-matrix + AddInPlace round
// trip. Terms are added in increasing k order per element; rows of a
// that are entirely zero in a k-pair are skipped (post-ReLU sparsity),
// which is value-identical for finite data.
//
// Large products parallelize over dst's rows: each worker owns a band
// of output rows and runs all k for it, so every element adds its terms
// in the one k order whatever GOMAXPROCS is.
//
//apt:hotpath
func TMatMulAcc(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic("tensor: TMatMulAcc outer dimension mismatch")
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("tensor: TMatMulAcc output shape mismatch")
	}
	gatherTMatMulAcc(dst, gemmA{src: a, hi: a.Cols}, b)
}

//apt:hotpath
func gatherTMatMulAcc(dst *Matrix, a gemmA, b *Matrix) {
	// Bands of whole row octets, so that only the last band has rows
	// for the zero-skipping Go loop (tmatmulAccRows).
	perTask := max(1, tmatmulAccMinWork/max(1, b.Rows*dst.Cols))
	parallelRows(gemmJob{dst, a, b}, dst.Rows, perTask, 8, gemmJob.tmatmulAcc)
}

// tmatmulAccBand runs the accumulate over all k for dst's rows [r0, r1).
//
//apt:hotpath
func tmatmulAccBand(dst *Matrix, a gemmA, b *Matrix, r0, r1 int) {
	band, a := tmatmulAccView(dst, a, r0, r1)
	aw, aScratch := a.withScratch()
	tmatmulAccRange(&band, aw, b, 0, b.Rows)
	Put(aScratch)
}

// tmatmulAccView narrows the accumulate to dst's rows [r0, r1): output
// row i is column a.lo+i of A, so A's column window narrows to
// [a.lo+r0, a.lo+r1), written through a view of those rows.
func tmatmulAccView(dst *Matrix, a gemmA, r0, r1 int) (Matrix, gemmA) {
	a.lo, a.hi = a.lo+r0, a.lo+r1
	return Matrix{Rows: r1 - r0, Cols: dst.Cols, Data: dst.Data[r0*dst.Cols : r1*dst.Cols]}, a
}

// tmatmulAccPair applies the rank-1 updates of one k-row pair to output
// row or, skipping zero coefficients (value-identical ±0 for finite
// data). The adds stay sequential in k order — (or[j]+a0·br0[j])+a1·br1[j]
// — matching two separate iterations exactly.
//
//apt:hotpath
func tmatmulAccPair(or []float32, a0, a1 float32, br0, br1 []float32) {
	if a0 == 0 {
		if a1 == 0 {
			return
		}
		for j := range or {
			or[j] += a1 * br1[j]
		}
		return
	}
	if a1 == 0 {
		for j := range or {
			or[j] += a0 * br0[j]
		}
		return
	}
	for j := range or {
		s := or[j]
		s += a0 * br0[j]
		s += a1 * br1[j]
		or[j] = s
	}
}

// tmatmulAccRange applies the rank-1 updates of k rows [lo, hi) to dst,
// skipping zero coefficients (post-ReLU sparsity). Per element the adds
// stay sequential in k order, so the association is identical to the
// separate iterations.
//
//apt:hotpath
func tmatmulAccRange(dst *Matrix, a gemmA, b *Matrix, lo, hi int) {
	tmatmulAccRows(dst, a, b, lo, hi, true)
}

// tmatmulAccRows is the one body behind tmatmulAccRange and the tests'
// portable-Go reference (tmatmulAccRangeGeneric). With vec set, the
// platform's tile kernel takes the leading row octets and 16-column
// blocks where it has one (tmatmulAccOctVec); the Go loops take what is
// left: the last m mod 8 rows and the columns past the last multiple
// of 16. Rows and columns are independent, so the split moves no bit.
//
//apt:hotpath
func tmatmulAccRows(dst *Matrix, a gemmA, b *Matrix, lo, hi int, vec bool) {
	m8, n16 := 0, 0
	if vec {
		m8, n16 = tmatmulAccOctVec(dst, a, b, lo, hi)
	}
	if m8 == 0 {
		tmatmulAccCols(dst, a, b, lo, hi, 0, vec)
		return
	}
	if n16 < dst.Cols {
		head, ah := tmatmulAccView(dst, a, 0, m8)
		tmatmulAccCols(&head, ah, b, lo, hi, n16, vec)
	}
	if m8 < dst.Rows {
		tail, at := tmatmulAccView(dst, a, m8, dst.Rows)
		tmatmulAccCols(&tail, at, b, lo, hi, 0, vec)
	}
}

// tmatmulAccCols applies the updates to dst's columns [j0, n), eight
// (then four) k rows at a time. The wide forms amortize the pass over
// dst when all coefficients are live (raw features are dense); mixed
// zero patterns fall back to zero-skipping pair updates. With vec set,
// runs of output rows whose eight coefficients are all live go to the
// platform's AVX2 kernel (if it has one). Which rows are all-live, and
// everything about the others, is decided here either way.
//
//apt:hotpath
func tmatmulAccCols(dst *Matrix, a gemmA, b *Matrix, lo, hi, j0 int, vec bool) {
	m, n := dst.Rows, dst.Cols
	w := n - j0
	dd := dst.Data
	kk := lo
	for ; kk+7 < hi; kk += 8 {
		// Reslicing every A row to exactly m elements lets the compiler
		// drop the bounds checks on the eight ar[i] loads per output row.
		ar0 := a.row(kk)[:m]
		ar1 := a.row(kk + 1)[:m]
		ar2 := a.row(kk + 2)[:m]
		ar3 := a.row(kk + 3)[:m]
		ar4 := a.row(kk + 4)[:m]
		ar5 := a.row(kk + 5)[:m]
		ar6 := a.row(kk + 6)[:m]
		ar7 := a.row(kk + 7)[:m]
		br0 := b.Row(kk)[j0:][:w]
		br1 := b.Row(kk + 1)[j0:][:w]
		br2 := b.Row(kk + 2)[j0:][:w]
		br3 := b.Row(kk + 3)[j0:][:w]
		br4 := b.Row(kk + 4)[j0:][:w]
		br5 := b.Row(kk + 5)[j0:][:w]
		br6 := b.Row(kk + 6)[j0:][:w]
		br7 := b.Row(kk + 7)[j0:][:w]
		for i := 0; i < m; i++ {
			a0, a1, a2, a3 := ar0[i], ar1[i], ar2[i], ar3[i]
			a4, a5, a6, a7 := ar4[i], ar5[i], ar6[i], ar7[i]
			if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 &&
				a4 != 0 && a5 != 0 && a6 != 0 && a7 != 0 {
				if vec {
					// The kernel takes this row and the all-live rows
					// that follow it, and stops at the first that is not.
					ar := [8][]float32{ar0, ar1, ar2, ar3, ar4, ar5, ar6, ar7}
					if next := tmatmulAcc8Vec(dd[j0:], i, m, w, n, &ar, b.Data[kk*b.Cols+j0:], b.Cols); next > i {
						i = next - 1
						continue
					}
				}
				or := dd[i*n+j0:][:w]
				// Two columns per pass — independent accumulator
				// chains, per-column k order unchanged (see
				// gemmPanelDense).
				j := 0
				for ; j+1 < w; j += 2 {
					s0, s1 := or[j], or[j+1]
					s0 += a0 * br0[j]
					s1 += a0 * br0[j+1]
					s0 += a1 * br1[j]
					s1 += a1 * br1[j+1]
					s0 += a2 * br2[j]
					s1 += a2 * br2[j+1]
					s0 += a3 * br3[j]
					s1 += a3 * br3[j+1]
					s0 += a4 * br4[j]
					s1 += a4 * br4[j+1]
					s0 += a5 * br5[j]
					s1 += a5 * br5[j+1]
					s0 += a6 * br6[j]
					s1 += a6 * br6[j+1]
					s0 += a7 * br7[j]
					s1 += a7 * br7[j+1]
					or[j] = s0
					or[j+1] = s1
				}
				for ; j < w; j++ {
					s := or[j]
					s += a0 * br0[j]
					s += a1 * br1[j]
					s += a2 * br2[j]
					s += a3 * br3[j]
					s += a4 * br4[j]
					s += a5 * br5[j]
					s += a6 * br6[j]
					s += a7 * br7[j]
					or[j] = s
				}
				continue
			}
			or := dd[i*n+j0:][:w]
			tmatmulAccPair(or, a0, a1, br0, br1)
			tmatmulAccPair(or, a2, a3, br2, br3)
			tmatmulAccPair(or, a4, a5, br4, br5)
			tmatmulAccPair(or, a6, a7, br6, br7)
		}
	}
	for ; kk+3 < hi; kk += 4 {
		ar0 := a.row(kk)[:m]
		ar1 := a.row(kk + 1)[:m]
		ar2 := a.row(kk + 2)[:m]
		ar3 := a.row(kk + 3)[:m]
		br0 := b.Row(kk)[j0:][:w]
		br1 := b.Row(kk + 1)[j0:][:w]
		br2 := b.Row(kk + 2)[j0:][:w]
		br3 := b.Row(kk + 3)[j0:][:w]
		for i := 0; i < m; i++ {
			a0, a1, a2, a3 := ar0[i], ar1[i], ar2[i], ar3[i]
			if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
				or := dd[i*n+j0:][:w]
				for j := range or {
					s := or[j]
					s += a0 * br0[j]
					s += a1 * br1[j]
					s += a2 * br2[j]
					s += a3 * br3[j]
					or[j] = s
				}
				continue
			}
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			or := dd[i*n+j0:][:w]
			tmatmulAccPair(or, a0, a1, br0, br1)
			tmatmulAccPair(or, a2, a3, br2, br3)
		}
	}
	if kk+1 < hi {
		ar0 := a.row(kk)
		ar1 := a.row(kk + 1)
		br0 := b.Row(kk)[j0:][:w]
		br1 := b.Row(kk + 1)[j0:][:w]
		for i := 0; i < m; i++ {
			a0, a1 := ar0[i], ar1[i]
			if a0 == 0 && a1 == 0 {
				continue
			}
			tmatmulAccPair(dd[i*n+j0:][:w], a0, a1, br0, br1)
		}
		kk += 2
	}
	for ; kk < hi; kk++ {
		ar := a.row(kk)
		br := b.Row(kk)[j0:][:w]
		for i, av := range ar {
			if av == 0 {
				continue
			}
			or := dd[i*n+j0:][:w]
			for j := range or {
				or[j] += av * br[j]
			}
		}
	}
}
