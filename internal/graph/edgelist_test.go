package graph

import (
	"fmt"
	"strings"
	"testing"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# a comment
1 0
2 0

3 1
`
	g, err := ReadEdgeList(strings.NewReader(in), EdgeListOptions{DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Errorf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(0) != 2 {
		t.Errorf("Degree(0) = %d", g.Degree(0))
	}
}

func TestReadEdgeListUndirected(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n"), EdgeListOptions{Undirected: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2", g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"abc def\n",
		"1\n",
		"-1 2\n",
		"1 xyz\n",
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c), EdgeListOptions{}); err == nil {
			t.Errorf("accepted malformed input %q", c)
		}
	}
}

// TestEdgeListRoundTrip reads a literal "src dst" list and checks the
// graph holds exactly those edges, each as an in-neighbor of its dst.
func TestEdgeListRoundTrip(t *testing.T) {
	edges := [][2]NodeID{{1, 0}, {4, 0}, {0, 2}, {3, 2}, {2, 4}, {4, 3}, {0, 1}}
	var in strings.Builder
	b := NewBuilder(5)
	for _, e := range edges {
		fmt.Fprintf(&in, "%d %d\n", e[0], e[1])
		b.AddEdge(e[0], e[1])
	}
	g, err := ReadEdgeList(strings.NewReader(in.String()), EdgeListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !csrEqual(b.Build(false), g) {
		t.Errorf("edge list %v read as indptr %v indices %v", edges, g.Indptr, g.Indices)
	}
}
