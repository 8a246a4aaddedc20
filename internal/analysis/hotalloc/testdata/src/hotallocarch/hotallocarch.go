// Package hotallocarch declares one kernel twice, once per platform:
// an assembly-backed declaration in kernel_amd64.go and a Go body in
// kernel_generic.go. Exactly one of the two is in the build on any
// host, so the package must load as `go build` sees it — without a
// "redeclared" type error — and the analyzer must accept the body-less
// form.
package hotallocarch

// accumulate is hot and clean on either platform.
//
//apt:hotpath
func accumulate(dst, x []float32) {
	axpy(dst, x, 2)
}
