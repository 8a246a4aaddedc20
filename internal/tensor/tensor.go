// Package tensor provides the dense and sparse (segment) float32
// kernels that play the role of DGL's GPU kernels in this
// reproduction: matrix multiplication, elementwise ops, gather by row,
// segment aggregation over bipartite blocks (SpMM), and
// per-edge score computation (SDDMM), each with a hand-written backward
// pass used by the manual autograd in package nn.
package tensor

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New allocates a zeroed rows x cols matrix.
func New(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromData wraps data (len rows*cols) without copying.
func FromData(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromData %dx%d with %d elements", rows, cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero clears all elements.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Bytes returns the payload size in bytes (4 bytes per element), the
// unit communication volumes are accounted in.
func (m *Matrix) Bytes() int64 { return int64(len(m.Data)) * 4 }

// AddInPlace computes m += x.
func (m *Matrix) AddInPlace(x *Matrix) {
	checkSameShape("AddInPlace", m, x)
	for i, v := range x.Data {
		m.Data[i] += v
	}
}

// AXPY computes m += s*x.
func (m *Matrix) AXPY(s float32, x *Matrix) {
	checkSameShape("AXPY", m, x)
	for i, v := range x.Data {
		m.Data[i] += s * v
	}
}

// MaxAbsDiff returns max_i |m_i - x_i|; used by equivalence tests.
func (m *Matrix) MaxAbsDiff(x *Matrix) float64 {
	checkSameShape("MaxAbsDiff", m, x)
	var mx float64
	for i := range m.Data {
		d := math.Abs(float64(m.Data[i]) - float64(x.Data[i]))
		if d > mx {
			mx = d
		}
	}
	return mx
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Gather copies rows idx of src into a new matrix (index_select).
func Gather(src *Matrix, idx []int32) *Matrix {
	out := New(len(idx), src.Cols)
	for i, r := range idx {
		copy(out.Row(i), src.Row(int(r)))
	}
	return out
}

// iotaRows is the identity index Iota hands out prefixes of.
var iotaRows atomic.Pointer[[]int32]

// Iota returns the identity index 0, 1, …, n-1: the idx under which a
// gather-fused kernel reads a plain matrix's rows in order (an upper
// layer's hidden input, FS(h)). It is a prefix of one shared slice,
// grown when a caller needs more rows than it holds, so a steady-state
// call allocates nothing. The result is read-only and capped at n.
func Iota(n int) []int32 {
	for {
		p := iotaRows.Load()
		if p != nil && len(*p) >= n {
			return (*p)[:n:n]
		}
		m := n
		if p != nil {
			m = max(n, 2*len(*p))
		}
		s := make([]int32, m)
		for i := range s {
			s[i] = int32(i)
		}
		// A concurrent grower that installed first wins; its slice is a
		// complete identity too, and the next pass reads it.
		if iotaRows.CompareAndSwap(p, &s) {
			return s[:n:n]
		}
	}
}
