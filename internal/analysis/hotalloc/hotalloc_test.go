package hotalloc_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/hotalloc"
)

func TestHotalloc(t *testing.T) {
	analysistest.Run(t, "testdata", hotalloc.Analyzer, "hotallocdata")
}

// TestHotallocBuildConstrainedPair loads a package that declares the
// same hot function in an _amd64.go file (body-less, assembly-backed)
// and in a //go:build !amd64 twin. The loader must pick the one file
// the host builds — taking both is a "redeclared" type error that
// fails the load — and the fixture carries no want markers, so any
// finding fails too.
func TestHotallocBuildConstrainedPair(t *testing.T) {
	analysistest.Run(t, "testdata", hotalloc.Analyzer, "hotallocarch")
}
