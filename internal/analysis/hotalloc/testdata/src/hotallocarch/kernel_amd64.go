package hotallocarch

// axpy is implemented in assembly on amd64 (no body to analyze).
//
//apt:hotpath
func axpy(dst, x []float32, a float32)
