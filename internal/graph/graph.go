// Package graph provides the in-memory graph substrate used throughout
// APT-Go: a compressed-sparse-row (CSR) topology, deterministic random
// generators for synthetic datasets, builders, statistics, and the
// SNAP-style text edge-list reader.
//
// Node identifiers are int32 (the paper's graphs have <2^31 nodes) and
// edge offsets are int64 (edge counts can exceed 2^31).
package graph

import (
	"fmt"
	"slices"
)

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
// self-loops if dropSelfLoops is set.
func (b *Builder) Build(dropSelfLoops bool) *Graph {
	n := b.numNodes
	indptr := make([]int64, n+1)
	for i, v := range b.dsts {
		if dropSelfLoops && b.srcs[i] == v {
			continue
		}
		indptr[v+1]++
	}
	for v := 0; v < n; v++ {
		indptr[v+1] += indptr[v]
	}
	indices := make([]NodeID, indptr[n])
	cursor := make([]int64, n)
	copy(cursor, indptr[:n])
	for i, v := range b.dsts {
		u := b.srcs[i]
		if dropSelfLoops && u == v {
			continue
		}
		indices[cursor[v]] = u
		cursor[v]++
	}
	// Sort each adjacency list and dedup in place.
	out := make([]NodeID, 0, len(indices))
	newIndptr := make([]int64, n+1)
	for v := 0; v < n; v++ {
		row := indices[indptr[v]:indptr[v+1]]
		slices.Sort(row)
		var last NodeID = -1
		for _, u := range row {
			if u != last {
				out = append(out, u)
				last = u
			}
		}
		newIndptr[v+1] = int64(len(out))
	}
	g := &Graph{Indptr: newIndptr, Indices: out}
	return g
}
