// Package partition implements edge-cut graph partitioning for the SNP
// and DNP parallelization strategies. The main algorithm is a
// from-scratch multilevel partitioner in the style of METIS
// (coarsening by heavy-edge matching, greedy initial partitioning,
// boundary Kernighan–Lin refinement); Random and Range partitioners
// serve as the paper's Figure 11 baseline.
package partition

import (
	"fmt"

	"repro/internal/graph"
)

// Partitioning assigns every node of a graph to one of K parts.
type Partitioning struct {
	// Assign[v] is the part of node v, in [0, NumParts).
	Assign []int32
	// NumParts is K.
	NumParts int
}

// Sizes returns the node count of each part.
func (p *Partitioning) Sizes() []int {
	sizes := make([]int, p.NumParts)
	for _, a := range p.Assign {
		sizes[a]++
	}
	return sizes
}

// Validate checks that every assignment is in range and (when strict)
// that no part is empty.
func (p *Partitioning) Validate(strict bool) error {
	if p.NumParts <= 0 {
		return fmt.Errorf("partition: NumParts = %d", p.NumParts)
	}
	for v, a := range p.Assign {
		if a < 0 || int(a) >= p.NumParts {
			return fmt.Errorf("partition: node %d assigned to part %d of %d", v, a, p.NumParts)
		}
	}
	if strict {
		for i, s := range p.Sizes() {
			if s == 0 {
				return fmt.Errorf("partition: part %d is empty", i)
			}
		}
	}
	return nil
}

// Quality summarizes a partitioning against a graph.
type Quality struct {
	// EdgeCut is the number of edges whose endpoints live in different
	// parts.
	EdgeCut int64
	// CutRatio is EdgeCut / total edges.
	CutRatio float64
	// Imbalance is max part size / ideal part size; 1.0 is perfect.
	Imbalance float64
}

// Evaluate measures the edge cut and balance of p on g.
func Evaluate(g *graph.Graph, p *Partitioning) Quality {
	var cut int64
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		pv := p.Assign[v]
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if p.Assign[u] != pv {
				cut++
			}
		}
	}
	q := Quality{EdgeCut: cut}
	if e := g.NumEdges(); e > 0 {
		q.CutRatio = float64(cut) / float64(e)
	}
	ideal := float64(n) / float64(p.NumParts)
	maxSize := 0
	for _, s := range p.Sizes() {
		if s > maxSize {
			maxSize = s
		}
	}
	if ideal > 0 {
		q.Imbalance = float64(maxSize) / ideal
	}
	return q
}

// Random assigns nodes to parts uniformly at random (paper Fig. 11's
// "random partitioning" baseline). The result is balanced in
// expectation but has a near-worst-case edge cut.
func Random(g *graph.Graph, k int, seed uint64) *Partitioning {
	rng := graph.NewRNG(seed)
	n := g.NumNodes()
	assign := make([]int32, n)
	// Assign by shuffling to guarantee exact balance.
	perm := rng.Perm(n)
	for i, v := range perm {
		assign[v] = int32(i % k)
	}
	return &Partitioning{Assign: assign, NumParts: k}
}
