// Package graph provides the in-memory graph substrate used throughout
// APT-Go: a compressed-sparse-row (CSR) topology, deterministic random
// generators for synthetic datasets, builders, statistics, and the
// SNAP-style text edge-list reader.
//
// Node identifiers are int32 (the paper's graphs have <2^31 nodes) and
// edge offsets are int64 (edge counts can exceed 2^31).
package graph

import "fmt"

// NodeID identifies a node in the global graph.
type NodeID = int32

// Graph is a directed graph in CSR form. For GNN usage the CSR stores,
// for each destination node, its in-neighbors (message sources): row v
// lists the nodes u with an edge u->v, matching the neighbor set N(v)
// aggregated by Eq. (1) of the paper.
//
// A Graph is immutable after construction and safe for concurrent reads.
type Graph struct {
	// Indptr has length NumNodes()+1; neighbors of v are
	// Indices[Indptr[v]:Indptr[v+1]].
	Indptr []int64
	// Indices holds concatenated adjacency lists.
	Indices []NodeID
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.Indptr) - 1 }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int64 { return g.Indptr[len(g.Indptr)-1] }

// Degree returns the in-degree (neighbor count) of v.
func (g *Graph) Degree(v NodeID) int {
	return int(g.Indptr[v+1] - g.Indptr[v])
}

// Neighbors returns the neighbor slice of v. The slice aliases the
// graph's storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.Indices[g.Indptr[v]:g.Indptr[v+1]]
}

// Validate checks structural invariants and returns a descriptive error
// if any is violated.
func (g *Graph) Validate() error {
	if len(g.Indptr) == 0 {
		return fmt.Errorf("graph: empty indptr")
	}
	if g.Indptr[0] != 0 {
		return fmt.Errorf("graph: indptr[0] = %d, want 0", g.Indptr[0])
	}
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		if g.Indptr[v+1] < g.Indptr[v] {
			return fmt.Errorf("graph: indptr not monotone at node %d", v)
		}
	}
	if g.Indptr[n] != int64(len(g.Indices)) {
		return fmt.Errorf("graph: indptr[%d] = %d, want len(indices) = %d",
			n, g.Indptr[n], len(g.Indices))
	}
	for i, u := range g.Indices {
		if u < 0 || int(u) >= n {
			return fmt.Errorf("graph: indices[%d] = %d out of range [0,%d)", i, u, n)
		}
	}
	return nil
}

// Builder accumulates edges and produces a CSR Graph. Duplicate edges
// are merged and adjacency lists are sorted for deterministic layouts.
type Builder struct {
	numNodes int
	srcs     []NodeID
	dsts     []NodeID
}

// NewBuilder creates a builder for a graph with numNodes nodes.
func NewBuilder(numNodes int) *Builder {
	return &Builder{numNodes: numNodes}
}

// AddEdge records a directed edge u->v (u becomes an in-neighbor of v).
func (b *Builder) AddEdge(u, v NodeID) {
	b.srcs = append(b.srcs, u)
	b.dsts = append(b.dsts, v)
}

// AddUndirected records both u->v and v->u.
func (b *Builder) AddUndirected(u, v NodeID) {
	b.AddEdge(u, v)
	b.AddEdge(v, u)
}

// Build produces the CSR graph, merging duplicates and dropping
// self-loops if dropSelfLoops is set. Two stable counting passes, by
// source and then by destination, leave every row sorted by source, so
// a row's duplicates sit next to each other and are merged in place.
func (b *Builder) Build(dropSelfLoops bool) *Graph {
	n := b.numNodes
	skip := func(i int) bool { return dropSelfLoops && b.srcs[i] == b.dsts[i] }
	srcPtr := make([]int64, n+1)
	indptr := make([]int64, n+1)
	for i, u := range b.srcs {
		if !skip(i) {
			srcPtr[u+1]++
			indptr[b.dsts[i]+1]++
		}
	}
	prefixSum(srcPtr)
	cursor := append([]int64(nil), srcPtr[:n]...)
	bySrc := make([]NodeID, srcPtr[n]) // destinations, grouped by source
	for i, u := range b.srcs {
		if !skip(i) {
			bySrc[cursor[u]] = b.dsts[i]
			cursor[u]++
		}
	}
	prefixSum(indptr)
	copy(cursor, indptr[:n])
	indices := make([]NodeID, indptr[n])
	for u := 0; u < n; u++ {
		for _, v := range bySrc[srcPtr[u]:srcPtr[u+1]] {
			indices[cursor[v]] = NodeID(u)
			cursor[v]++
		}
	}
	// Dedup each sorted row in place, compacting toward the front.
	var w, lo int64
	for v := 0; v < n; v++ {
		hi := indptr[v+1]
		last := NodeID(-1)
		for _, u := range indices[lo:hi] {
			if u != last {
				indices[w] = u
				w++
				last = u
			}
		}
		lo = hi
		indptr[v+1] = w
	}
	return &Graph{Indptr: indptr, Indices: indices[:w]}
}

// prefixSum turns the per-bucket counts held at ptr[b+1] into bucket
// start offsets.
func prefixSum(ptr []int64) {
	for b := 1; b < len(ptr); b++ {
		ptr[b] += ptr[b-1]
	}
}
