package tensor

import (
	"math"
	"testing"

	"repro/internal/graph"
)

// quantFixture builds a feature matrix with mixed row shapes (normal,
// large-range, constant, tiny-range, zero) and a fully-quantized
// shadow of it.
func quantFixture(rows, cols int, seed uint64) (*Matrix, *QuantMatrix, []uint64) {
	rng := graph.NewRNG(seed)
	m := New(rows, cols)
	for r := 0; r < rows; r++ {
		switch r % 5 {
		case 0: // typical features
			for j := 0; j < cols; j++ {
				m.Set(r, j, rng.NormFloat32())
			}
		case 1: // large dynamic range
			for j := 0; j < cols; j++ {
				m.Set(r, j, 100*rng.NormFloat32())
			}
		case 2: // constant row (degenerate: scale 0)
			for j := 0; j < cols; j++ {
				m.Set(r, j, 3.25)
			}
		case 3: // tiny range around a large offset
			for j := 0; j < cols; j++ {
				m.Set(r, j, 50+0.001*rng.NormFloat32())
			}
		case 4: // all zero
		}
	}
	q := NewQuant(rows, cols)
	mask := make([]uint64, (rows+63)/64)
	for r := 0; r < rows; r++ {
		q.QuantizeRow(r, m.Row(r))
		mask[r>>6] |= 1 << (uint(r) & 63)
	}
	return m, q, mask
}

// dequantRowInto reconstructs row r of q into dst (len >= Cols), the
// round-trip oracle.
func dequantRowInto(q *QuantMatrix, dst []float32, r int) {
	qr := q.Data[r*q.Cols : (r+1)*q.Cols]
	s, z := q.Scale[r], q.Zero[r]
	dst = dst[:len(qr)]
	for j, qv := range qr {
		dst[j] = s*float32(qv) + z
	}
}

// rowRange is max-min of a row.
func rowRange(row []float32) float64 {
	mn, mx := row[0], row[0]
	for _, v := range row {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return float64(mx) - float64(mn)
}

// TestQuantRoundTripProperty: per-row affine int8 quantization over
// 255 levels bounds the round-trip error of every element by half a
// step, (max-min)/510; degenerate constant rows reproduce exactly.
func TestQuantRoundTripProperty(t *testing.T) {
	const rows, cols = 200, 19
	m, q, _ := quantFixture(rows, cols, 11)
	dst := make([]float32, cols)
	for r := 0; r < rows; r++ {
		src := m.Row(r)
		dequantRowInto(q, dst, r)
		// Half a quantization step, plus a few float32 ULPs at the
		// row's magnitude: scale*q+zero rounds once more than the real
		// arithmetic the half-step bound assumes.
		var maxAbs float64
		for _, v := range src {
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
		}
		halfStep := rowRange(src) / 510
		bound := halfStep*(1+1e-5) + maxAbs*1e-6
		for j := 0; j < cols; j++ {
			err := math.Abs(float64(dst[j]) - float64(src[j]))
			if halfStep == 0 {
				if err != 0 {
					t.Fatalf("row %d col %d: constant row must round-trip exactly, got err %g", r, j, err)
				}
				continue
			}
			if err > bound {
				t.Errorf("row %d col %d: round-trip error %g exceeds bound %g", r, j, err, bound)
			}
		}
	}
}

// TestQuantizeRowDeterministic: quantizing the same data twice yields
// identical codes and row parameters (the admission path re-runs on
// re-planning, and the cache contents must not drift).
func TestQuantizeRowDeterministic(t *testing.T) {
	const rows, cols = 40, 16
	m, q, _ := quantFixture(rows, cols, 23)
	q2 := NewQuant(rows, cols)
	for r := 0; r < rows; r++ {
		q2.QuantizeRow(r, m.Row(r))
	}
	for i := range q.Data {
		if q.Data[i] != q2.Data[i] {
			t.Fatalf("code %d differs across identical quantizations", i)
		}
	}
	for r := 0; r < rows; r++ {
		if q.Scale[r] != q2.Scale[r] || q.Zero[r] != q2.Zero[r] {
			t.Fatalf("row %d params differ across identical quantizations", r)
		}
	}
}

// TestFeatSourceExactDispatch: every gather-fused kernel over an
// untiered FS(m) equals the unfused product over the gathered copy bit
// for bit — MatMul(Gather(m, idx), b) forward, TMatMulAcc on the
// gathered copy backward — for the full-width forms and for a column
// window [lo, hi) strictly inside the row. The tier being merely
// *present in the API* cannot perturb the fp32 path.
func TestFeatSourceExactDispatch(t *testing.T) {
	const rows, cols, out = 64, 12, 7
	rng := graph.NewRNG(5)
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat32()
	}
	idx := make([]int32, 40)
	for i := range idx {
		idx[i] = int32(rng.Intn(rows))
	}
	dZ := New(len(idx), out)
	for i := range dZ.Data {
		dZ.Data[i] = rng.NormFloat32()
	}
	src := FS(m)

	for _, win := range [][2]int{{0, cols}, {3, 10}} {
		lo, hi := win[0], win[1]
		b := New(hi-lo, out)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat32()
		}
		gathered := New(len(idx), hi-lo)
		for i, r := range idx {
			copy(gathered.Row(i), m.Row(int(r))[lo:hi])
		}
		wantZ := MatMul(gathered, b)
		wantW := New(hi-lo, out)
		TMatMulAcc(wantW, gathered, dZ)

		bitsEqual(t, "GatherMatMulSliceSrc", GatherMatMulSliceSrc(src, idx, lo, hi, b).Data, wantZ.Data)
		gotW := New(hi-lo, out)
		GatherTMatMulAccSliceSrc(gotW, src, idx, lo, hi, dZ)
		bitsEqual(t, "GatherTMatMulAccSliceSrc", gotW.Data, wantW.Data)
		if hi-lo == cols {
			bitsEqual(t, "GatherMatMulSrc", GatherMatMulSrc(src, idx, b).Data, wantZ.Data)
			gotW.Zero()
			GatherTMatMulAccSrc(gotW, src, idx, dZ)
			bitsEqual(t, "GatherTMatMulAccSrc", gotW.Data, wantW.Data)
		}
	}
}

// TestQuantizedGatherTolerance: with every source row quantized, the
// fused dequant-gather matmul stays within the analytic error bound
// sum_k rowErr(k)*|B[k,j]| of the fp32 product.
func TestQuantizedGatherTolerance(t *testing.T) {
	const rows, cols, out = 100, 16, 9
	m, q, mask := quantFixture(rows, cols, 31)
	src := FeatSource{F: m, Q: q, QMask: mask}
	rng := graph.NewRNG(17)
	b := New(cols, out)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat32()
	}
	idx := make([]int32, 80)
	for i := range idx {
		idx[i] = int32(rng.Intn(rows))
	}

	exact := GatherMatMulSrc(FS(m), idx, b)
	approx := GatherMatMulSrc(src, idx, b)
	for r := range idx {
		rowErr := rowRange(m.Row(int(idx[r]))) / 510 * (1 + 1e-5)
		for j := 0; j < out; j++ {
			var bound float64
			for k := 0; k < cols; k++ {
				bound += rowErr * math.Abs(float64(b.At(k, j)))
			}
			d := math.Abs(float64(approx.At(r, j)) - float64(exact.At(r, j)))
			if d > bound+1e-5 {
				t.Errorf("out[%d,%d]: quantized drift %g exceeds analytic bound %g", r, j, d, bound)
			}
		}
	}
	Put(exact)
	Put(approx)
}
