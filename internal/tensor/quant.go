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

// FeatSource is the unified read view of a feature store: a master
// fp32 matrix plus an optional int8 warm tier. Rows whose bit is set
// in QMask are served by dequantizing Q; all other rows read F
// directly. With a nil QMask a FeatSource is exactly its fp32 matrix:
// every kernel taking one then reads F alone and is bit-identical to
// the same product over the gathered copy.
type FeatSource struct {
	F     *Matrix
	Q     *QuantMatrix
	QMask []uint64 // bitset over row ids; nil disables the tier
}

// FS wraps a plain fp32 matrix as a FeatSource (the bit-identical
// path).
func FS(m *Matrix) FeatSource { return FeatSource{F: m} }

// gemmA views rows idx of s, columns [lo, hi), as a GEMM left
// operand. With no tier q and qmask are nil, which is gemmA's plain
// fp32 path.
func (s FeatSource) gemmA(idx []int32, lo, hi int) gemmA {
	return gemmA{src: s.F, idx: idx, lo: lo, hi: hi, q: s.Q, qmask: s.QMask}
}

// GatherMatMulSrc returns src[idx] @ b without materializing the
// gathered rows (DGL's gather-mm): fp32 rows are read through the
// index vector directly, int8 rows through on-the-fly dequantization.
// Over an untiered source it is bit-identical to
// MatMul(Gather(src.F, idx), b).
//
//apt:hotpath
func GatherMatMulSrc(src FeatSource, idx []int32, b *Matrix) *Matrix {
	return GatherMatMulSliceSrc(src, idx, 0, src.F.Cols, b)
}

// GatherMatMulSliceSrc returns src[idx][:, lo:hi] @ b — NFP's
// per-shard projection, reading only the column window [lo, hi) of
// each indexed row.
//
//apt:hotpath
func GatherMatMulSliceSrc(src FeatSource, idx []int32, lo, hi int, b *Matrix) *Matrix {
	out := Get(len(idx), b.Cols)
	gemmInto(out, src.gemmA(idx, lo, hi), b)
	return out
}

// GatherTMatMulAccSrc accumulates dst += src[idx]ᵀ @ b without
// materializing the gathered rows — the layer-0 weight gradient read
// straight from the feature store.
//
//apt:hotpath
func GatherTMatMulAccSrc(dst *Matrix, src FeatSource, idx []int32, b *Matrix) {
	GatherTMatMulAccSliceSrc(dst, src, idx, 0, src.F.Cols, b)
}

// GatherTMatMulAccSliceSrc accumulates dst += src[idx][:, lo:hi]ᵀ @ b
// — NFP's weight-shard gradient from the feature columns [lo, hi).
//
//apt:hotpath
func GatherTMatMulAccSliceSrc(dst *Matrix, src FeatSource, idx []int32, lo, hi int, b *Matrix) {
	if len(idx) != b.Rows {
		panic("tensor: GatherTMatMulAccSliceSrc outer dimension mismatch")
	}
	gatherTMatMulAcc(dst, src.gemmA(idx, lo, hi), b)
}
