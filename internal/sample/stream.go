package sample

import (
	"repro/internal/graph"
)

// RequestSet is the request-driven seed front-end to the sampler used
// by online inference: it accumulates the seed lists of concurrent
// predict requests and coalesces them into one deduplicated seed batch,
// remembering each request's row positions so the batched model output
// can be scattered back per request. Sharing is the point — requests
// asking for the same (hot) node sample and compute it once.
//
// A RequestSet is reusable across batches via Reset and is not safe for
// concurrent use; the serving layer keeps one per inference worker.
type RequestSet struct {
	seeds []graph.NodeID
	rows  [][]int32
	pos   map[graph.NodeID]int32
}

// NewRequestSet creates an empty request set.
func NewRequestSet() *RequestSet {
	return &RequestSet{pos: make(map[graph.NodeID]int32, 64)}
}

// Add appends one request's seed nodes, deduplicating against every
// seed already in the batch, and returns the request's index. The
// input slice is not retained.
func (r *RequestSet) Add(nodes []graph.NodeID) int {
	ix := make([]int32, len(nodes))
	for i, u := range nodes {
		p, ok := r.pos[u]
		if !ok {
			p = int32(len(r.seeds))
			r.seeds = append(r.seeds, u)
			r.pos[u] = p
		}
		ix[i] = p
	}
	r.rows = append(r.rows, ix)
	return len(r.rows) - 1
}

// NumSeeds returns the deduplicated seed count.
func (r *RequestSet) NumSeeds() int { return len(r.seeds) }

// Seeds returns the deduplicated seed batch in first-seen order. The
// slice aliases internal storage and is invalidated by Reset.
func (r *RequestSet) Seeds() []graph.NodeID { return r.seeds }

// Rows returns request i's positions into Seeds() — and therefore into
// the row dimension of any model output computed for this batch. One
// entry per requested node, duplicates mapping to the same row.
func (r *RequestSet) Rows(i int) []int32 { return r.rows[i] }

// Reset clears the set for the next batch, retaining capacity.
func (r *RequestSet) Reset() {
	r.seeds = r.seeds[:0]
	r.rows = r.rows[:0]
	clear(r.pos)
}
