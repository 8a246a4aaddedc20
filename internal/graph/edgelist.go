package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// maxIsolatedSpan bounds how many more nodes an edge list's ID span
// may hold than its edges have endpoints (24 MiB of CSR offsets).
const maxIsolatedSpan = 1 << 20

// EdgeListOptions configures text edge-list parsing.
type EdgeListOptions struct {
	// Undirected adds each edge in both directions (the common case
	// for SNAP-style social-network files).
	Undirected bool
	// DropSelfLoops removes u->u edges (default behavior of Build).
	DropSelfLoops bool
}

// ReadEdgeList parses a whitespace-separated "src dst" text edge list
// (the format SNAP and OGB distribute graphs in) into a CSR graph.
// Node IDs must be non-negative integers; the graph spans [0, maxID].
// IDs that no edge names are isolated nodes, and a list may leave at
// most maxIsolatedSpan more of them than its edges have endpoints: the
// CSR arrays grow with the span, not the file, so a one-line list
// naming node 10^9 would otherwise allocate gigabytes. Lines starting
// with "#", SNAP's comment marker, are skipped. Unknown tokens or
// malformed lines produce an error with the line number.
func ReadEdgeList(r io.Reader, opts EdgeListOptions) (*Graph, error) {
	type rawEdge struct{ u, v int64 }
	var edges []rawEdge
	var maxID int64 = -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: edge list line %d: want 'src dst', got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: edge list line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: edge list line %d: %v", lineNo, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: edge list line %d: negative node ID", lineNo)
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, rawEdge{u, v})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: edge list: %w", err)
	}
	if maxID >= 1<<31 {
		return nil, fmt.Errorf("graph: node ID %d exceeds int32", maxID)
	}
	if maxID+1 > 2*int64(len(edges))+maxIsolatedSpan {
		return nil, fmt.Errorf("graph: node ID %d spans %d nodes but %d edges name at most %d; renumber the IDs densely",
			maxID, maxID+1, len(edges), 2*len(edges))
	}
	b := NewBuilder(int(maxID + 1))
	for _, e := range edges {
		if opts.Undirected {
			b.AddUndirected(NodeID(e.u), NodeID(e.v))
		} else {
			b.AddEdge(NodeID(e.u), NodeID(e.v))
		}
	}
	return b.Build(opts.DropSelfLoops), nil
}
