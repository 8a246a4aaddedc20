package graph

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// GenerateConfig configures the synthetic graph generators.
type GenerateConfig struct {
	// NumNodes is the node count of the generated graph.
	NumNodes int
	// AvgDegree is the target average in-degree.
	AvgDegree int
	// Seed makes generation deterministic.
	Seed uint64
}

// PreferentialAttachment generates an undirected power-law graph using
// the Barabási–Albert process: each new node attaches AvgDegree/2 edges
// to existing nodes chosen proportionally to their current degree. The
// result mirrors the heavy-tailed degree distributions of citation and
// social graphs (Papers100M, Friendster).
func PreferentialAttachment(cfg GenerateConfig) *Graph {
	n := cfg.NumNodes
	m := cfg.AvgDegree / 2
	if m < 1 {
		m = 1
	}
	rng := NewRNG(cfg.Seed)
	b := NewBuilder(n)
	// targets holds one entry per edge endpoint, so sampling a uniform
	// entry samples nodes proportionally to degree.
	targets := make([]NodeID, 0, 2*n*m)
	seed := m + 1
	if seed > n {
		seed = n
	}
	// Seed clique over the first few nodes.
	for i := 0; i < seed; i++ {
		for j := i + 1; j < seed; j++ {
			b.AddUndirected(NodeID(i), NodeID(j))
			targets = append(targets, NodeID(i), NodeID(j))
		}
	}
	chosen := make([]NodeID, 0, m)
	for v := seed; v < n; v++ {
		chosen = chosen[:0]
	pick:
		for len(chosen) < m {
			var u NodeID
			if len(targets) == 0 {
				u = NodeID(rng.Intn(v))
			} else {
				u = targets[rng.Intn(len(targets))]
			}
			if u == NodeID(v) {
				continue
			}
			for _, c := range chosen {
				if c == u {
					continue pick
				}
			}
			chosen = append(chosen, u)
		}
		for _, u := range chosen {
			b.AddUndirected(u, NodeID(v))
			targets = append(targets, u, NodeID(v))
		}
	}
	return b.Build(true)
}

// ErdosRenyi generates a uniform random graph with the given average
// degree; node accesses under sampling are nearly uniform, modeling the
// "scattered" end of the access-skew spectrum.
func ErdosRenyi(cfg GenerateConfig) *Graph {
	n := cfg.NumNodes
	rng := NewRNG(cfg.Seed)
	b := NewBuilder(n)
	edges := n * cfg.AvgDegree / 2
	for i := 0; i < edges; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		b.AddUndirected(u, v)
	}
	return b.Build(true)
}

// RMATConfig extends GenerateConfig with the RMAT quadrant
// probabilities; a+b+c+d must sum to 1.
type RMATConfig struct {
	GenerateConfig
	A, B, C float64 // D is implied: 1-A-B-C
}

// rmatChunk is how many edges one RMAT worker task decodes. It sizes
// tasks only: every edge lands in the same slot whatever the chunking.
const rmatChunk = 1 << 15

// RMAT generates a Kronecker-style power-law graph (Graph500 RMAT).
// Larger A concentrates edges on low-ID nodes, producing tunable skew —
// this is the knob the dataset presets use to match the paper's Table 3
// access-skew ordering.
//
// Every edge makes exactly scale Float64 draws, so one sequential
// Skip pass records where each chunk of edges starts in the stream, and
// ForChunks decodes the chunks into fixed slots of the edge list. The
// graph is the same bit for bit at any GOMAXPROCS.
func RMAT(cfg RMATConfig) *Graph {
	n := cfg.NumNodes
	scale := int(math.Ceil(math.Log2(float64(n))))
	size := 1 << scale
	edges := n * cfg.AvgDegree / 2
	a, ab, abc := cfg.A, cfg.A+cfg.B, cfg.A+cfg.B+cfg.C
	rng := NewRNG(cfg.Seed)
	chunks := make([]RNG, (edges+rmatChunk-1)/rmatChunk)
	for c := range chunks {
		chunks[c] = *rng
		rng.Skip(min(rmatChunk, edges-c*rmatChunk) * scale)
	}
	// Edge i fills slots 2i and 2i+1 in both directions. A self-loop is
	// kept here and dropped by Build.
	b := &Builder{numNodes: n, srcs: make([]NodeID, 2*edges), dsts: make([]NodeID, 2*edges)}
	ForChunks(len(chunks), func(c int) {
		r := chunks[c]
		for i := c * rmatChunk; i < min(edges, (c+1)*rmatChunk); i++ {
			u, v := 0, 0
			for bit := size >> 1; bit >= 1; bit >>= 1 {
				x := r.Float64()
				switch {
				case x < a:
					// top-left: no bits set
				case x < ab:
					v |= bit
				case x < abc:
					u |= bit
				default:
					u |= bit
					v |= bit
				}
			}
			// Fold IDs beyond n back into range to keep exactly n nodes.
			u %= n
			v %= n
			b.srcs[2*i], b.dsts[2*i] = NodeID(u), NodeID(v)
			b.srcs[2*i+1], b.dsts[2*i+1] = NodeID(v), NodeID(u)
		}
	})
	return b.Build(true)
}

// ForChunks runs fn(c) for every c in [0, n) on up to GOMAXPROCS
// goroutines and returns when all have run. A chunk must write only
// outputs of its own, so the result does not depend on the worker
// count.
func ForChunks(n int, fn func(c int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for c := 0; c < n; c++ {
			fn(c)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := int(next.Add(1) - 1); c < n; c = int(next.Add(1) - 1) {
				fn(c)
			}
		}()
	}
	wg.Wait()
}
