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
		"222222222 4\n",
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c), EdgeListOptions{}); err == nil {
			t.Errorf("accepted malformed input %q", c)
		}
	}
}

// TestReadEdgeListIsolatedSpan: a list may name IDs past its edges'
// endpoints up to maxIsolatedSpan more nodes, which become isolated;
// one node further is refused before any CSR array is allocated.
func TestReadEdgeListIsolatedSpan(t *testing.T) {
	top := fmt.Sprintf("0 %d\n", 2+maxIsolatedSpan-1)
	g, err := ReadEdgeList(strings.NewReader(top), EdgeListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2+maxIsolatedSpan || g.NumEdges() != 1 {
		t.Errorf("nodes=%d edges=%d, want %d and 1", g.NumNodes(), g.NumEdges(), 2+maxIsolatedSpan)
	}
	past := fmt.Sprintf("0 %d\n", 2+maxIsolatedSpan)
	if _, err := ReadEdgeList(strings.NewReader(past), EdgeListOptions{}); err == nil || !strings.Contains(err.Error(), "renumber") {
		t.Errorf("ReadEdgeList(%q) = %v, want a span error", past, err)
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
