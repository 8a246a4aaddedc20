package graph

import (
	"strings"
	"testing"
)

// FuzzReadEdgeList checks the text parser never panics and that every
// accepted graph passes structural validation.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n3 4\n")
	f.Add("")
	f.Add("9 9\n")
	f.Add("1 2 extra tokens\n")
	f.Add("0 1\nnot numbers\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input), EdgeListOptions{DropSelfLoops: true})
		if err != nil {
			return
		}
		if vErr := g.Validate(); vErr != nil {
			t.Fatalf("accepted graph fails validation: %v (input %q)", vErr, input)
		}
	})
}
