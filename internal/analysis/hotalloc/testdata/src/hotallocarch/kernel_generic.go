//go:build !amd64

package hotallocarch

// axpy is the portable implementation.
//
//apt:hotpath
func axpy(dst, x []float32, a float32) {
	for i, v := range x {
		dst[i] += a * v
	}
}
