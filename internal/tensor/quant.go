package tensor

import "math"

// Per-row affine int8 quantization for the warm feature-cache tier.
//
// Each row r stores q[j] = round((v[j] - zero_r) / scale_r) in int8 and
// dequantizes as v'[j] = scale_r*q[j] + zero_r. The row's scale spans
// its value range across the full int8 domain (scale = (max-min)/255,
// zero = min + 128*scale), so the round-trip error is bounded by
// scale/2 = (max-min)/510 per element. A constant row (max == min)
// gets scale 0 and zero = value, which round-trips exactly.
//
// The quantized path is deliberately NOT bit-identical to fp32 — it is
// a lossy cache tier traded for 4x capacity — so everything reading it
// is tested against tolerance bounds, never exact equality (DESIGN
// decision 15). The fp32 path never routes through this file.

// QuantMatrix is a dense row-major int8 matrix with per-row affine
// dequantization parameters. Rows not admitted through QuantizeRow are
// all-zero and dequantize to zero; callers gate reads with a row
// bitset (see FeatSource).
type QuantMatrix struct {
	Rows, Cols int
	Data       []int8
	Scale      []float32
	Zero       []float32
}

// NewQuant allocates a zeroed rows x cols quantized matrix.
func NewQuant(rows, cols int) *QuantMatrix {
	return &QuantMatrix{
		Rows:  rows,
		Cols:  cols,
		Data:  make([]int8, rows*cols),
		Scale: make([]float32, rows),
		Zero:  make([]float32, rows),
	}
}

// QuantRowBytes is the accounting size of one quantized row: one byte
// per element plus the 8-byte scale/zero pair — the size the cache
// store charges for an int8-tier read, vs 4 bytes per element for
// fp32.
func QuantRowBytes(cols int) int64 { return int64(cols) + 8 }

// Bytes returns the accounting size of the whole matrix.
func (q *QuantMatrix) Bytes() int64 { return int64(q.Rows) * QuantRowBytes(q.Cols) }

// QuantizeRow admits src (len Cols) as row r, computing the row's
// affine parameters and rounding each element to the nearest int8
// step. Admission is idempotent: re-quantizing the same values yields
// the same bytes.
func (q *QuantMatrix) QuantizeRow(r int, src []float32) {
	if len(src) != q.Cols {
		panic("tensor: QuantizeRow width mismatch")
	}
	mn, mx := src[0], src[0]
	for _, v := range src[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	dst := q.Data[r*q.Cols : (r+1)*q.Cols]
	if mx == mn {
		q.Scale[r] = 0
		q.Zero[r] = mn
		for j := range dst {
			dst[j] = 0
		}
		return
	}
	scale := (mx - mn) / 255
	zero := mn + 128*scale
	q.Scale[r] = scale
	q.Zero[r] = zero
	inv := 1 / scale
	for j, v := range src {
		t := math.RoundToEven(float64((v - zero) * inv))
		if t > 127 {
			t = 127
		} else if t < -128 {
			t = -128
		}
		dst[j] = int8(t)
	}
}

// DequantRowInto reconstructs row r into dst (len >= Cols).
//
//apt:hotpath
func (q *QuantMatrix) DequantRowInto(dst []float32, r int) {
	qr := q.Data[r*q.Cols : (r+1)*q.Cols]
	s, z := q.Scale[r], q.Zero[r]
	dst = dst[:len(qr)]
	for j, qv := range qr {
		dst[j] = s*float32(qv) + z
	}
}

// FeatSource is the unified read view of a feature store: a master
// fp32 matrix plus an optional int8 warm tier. Rows whose bit is set
// in QMask are served by dequantizing Q; all other rows read F
// directly. With a nil QMask a FeatSource is exactly its fp32 matrix,
// and every kernel taking a FeatSource dispatches to the bit-identical
// fp32 kernel in that case.
type FeatSource struct {
	F     *Matrix
	Q     *QuantMatrix
	QMask []uint64 // bitset over row ids; nil disables the tier
}

// FS wraps a plain fp32 matrix as a FeatSource (the bit-identical
// path).
func FS(m *Matrix) FeatSource { return FeatSource{F: m} }

// Quantized reports whether row r is served from the int8 tier.
//
//apt:hotpath
func (s FeatSource) Quantized(r int) bool {
	return s.QMask != nil && s.QMask[r>>6]&(1<<(uint(r)&63)) != 0
}

// RowInto materializes row r into dst (len >= Cols), dequantizing if
// the row lives in the int8 tier.
//
//apt:hotpath
func (s FeatSource) RowInto(dst []float32, r int) {
	if s.Quantized(r) {
		s.Q.DequantRowInto(dst, r)
		return
	}
	copy(dst[:s.F.Cols], s.F.Row(r))
}

// GatherIntoSrc copies (dequantizing where needed) rows idx of src
// into the leading len(idx) rows of dst — the FeatSource form of
// GatherInto.
//
//apt:hotpath
func GatherIntoSrc(dst *Matrix, src FeatSource, idx []int32) {
	if src.QMask == nil {
		GatherInto(dst, src.F, idx)
		return
	}
	if dst.Cols != src.F.Cols {
		panic("tensor: GatherIntoSrc column mismatch")
	}
	if dst.Rows < len(idx) {
		panic("tensor: GatherIntoSrc destination too small")
	}
	for i, r := range idx {
		src.RowInto(dst.Row(i), int(r))
	}
}

// GatherMatMulSrc returns src[idx] @ b, reading fp32 rows directly and
// int8 rows through on-the-fly dequantization — the gather-mm used by
// layer 0 once the warm tier is enabled. With no tier it is exactly
// GatherMatMul.
//
//apt:hotpath
func GatherMatMulSrc(src FeatSource, idx []int32, b *Matrix) *Matrix {
	if src.QMask == nil {
		return GatherMatMul(src.F, idx, b)
	}
	out := Get(len(idx), b.Cols)
	gemmInto(out, gemmA{src: src.F, idx: idx, hi: src.F.Cols, q: src.Q, qmask: src.QMask}, b)
	return out
}

// GatherMatMulSliceSrc returns src[idx][:, lo:hi] @ b — NFP's
// per-shard projection over a tiered source.
//
//apt:hotpath
func GatherMatMulSliceSrc(src FeatSource, idx []int32, lo, hi int, b *Matrix) *Matrix {
	if src.QMask == nil {
		return GatherMatMulSlice(src.F, idx, lo, hi, b)
	}
	out := Get(len(idx), b.Cols)
	gemmInto(out, gemmA{src: src.F, idx: idx, lo: lo, hi: hi, q: src.Q, qmask: src.QMask}, b)
	return out
}

// GatherTMatMulAccSrc accumulates dst += src[idx]ᵀ @ b over a tiered
// source — the layer-0 weight gradient read straight from the store.
//
//apt:hotpath
func GatherTMatMulAccSrc(dst *Matrix, src FeatSource, idx []int32, b *Matrix) {
	if src.QMask == nil {
		GatherTMatMulAcc(dst, src.F, idx, b)
		return
	}
	if len(idx) != b.Rows {
		panic("tensor: GatherTMatMulAccSrc outer dimension mismatch")
	}
	gatherTMatMulAcc(dst, gemmA{src: src.F, idx: idx, hi: src.F.Cols, q: src.Q, qmask: src.QMask}, b)
}

// GatherTMatMulAccSliceSrc accumulates dst += src[idx][:, lo:hi]ᵀ @ b
// over a tiered source — NFP's weight-shard gradient.
//
//apt:hotpath
func GatherTMatMulAccSliceSrc(dst *Matrix, src FeatSource, idx []int32, lo, hi int, b *Matrix) {
	if src.QMask == nil {
		GatherTMatMulAccSlice(dst, src.F, idx, lo, hi, b)
		return
	}
	if len(idx) != b.Rows {
		panic("tensor: GatherTMatMulAccSliceSrc outer dimension mismatch")
	}
	gatherTMatMulAcc(dst, gemmA{src: src.F, idx: idx, lo: lo, hi: hi, q: src.Q, qmask: src.QMask}, b)
}

// SegmentAggFusedSrc is SegmentAggFused over a tiered source: fp32
// rows accumulate directly, int8 rows accumulate their dequantized
// values term by term (or[j] += scale*q[j] + zero), which equals
// dequantize-then-add exactly. With no tier it is exactly
// SegmentAggFused.
//
//apt:hotpath
func SegmentAggFusedSrc(edgePtr []int64, srcIdx []int32, src FeatSource, mean, relu bool) *Matrix {
	if src.QMask == nil {
		return SegmentAggFused(edgePtr, srcIdx, src.F, mean, relu)
	}
	nDst := len(edgePtr) - 1
	out := Get(nDst, src.F.Cols)
	segmentAggRangeSrc(edgePtr, srcIdx, src, out, mean, relu, 0, nDst)
	return out
}

// segmentAggRangeSrc is segmentAggRange with per-edge tier dispatch.
//
//apt:hotpath
func segmentAggRangeSrc(edgePtr []int64, srcIdx []int32, src FeatSource, out *Matrix, mean, relu bool, lo, hi int) {
	fd, fc := src.F.Data, src.F.Cols
	for i := lo; i < hi; i++ {
		or := out.Row(i)
		n := len(or)
		for e := edgePtr[i]; e < edgePtr[i+1]; e++ {
			r := int(srcIdx[e])
			if src.Quantized(r) {
				q := src.Q
				qr := q.Data[r*q.Cols : r*q.Cols+n]
				s, z := q.Scale[r], q.Zero[r]
				for j := range or {
					or[j] += s*float32(qr[j]) + z
				}
				continue
			}
			sr := fd[r*fc : r*fc+n]
			for j := range or {
				or[j] += sr[j]
			}
		}
		if mean {
			if d := edgePtr[i+1] - edgePtr[i]; d > 1 {
				inv := float32(1.0 / float64(d))
				for j := range or {
					or[j] *= inv
				}
			}
		}
		if relu {
			for j := range or {
				if !(or[j] > 0) {
					or[j] = 0
				}
			}
		}
	}
}
