package partition

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// MultilevelConfig tunes the multilevel partitioner.
type MultilevelConfig struct {
	// EdgeBalanced adds a second balance constraint on edge mass
	// (vertex weight 1+degree), METIS-style multi-constraint
	// partitioning: parts stay balanced in node count AND in the edge
	// workload their nodes attract. On skewed graphs, node-only balance
	// concentrates hub workload on one part, which turns SNP/DNP
	// owners into stragglers.
	EdgeBalanced bool
	// Seed drives matching and tie-breaking.
	Seed uint64
}

const (
	// coarsenTarget stops coarsening once the coarse graph has at most
	// this many nodes per part.
	coarsenTarget = 30
	// refinePasses is the number of boundary-refinement sweeps applied
	// at every level.
	refinePasses = 4
	// balanceSlack is the allowed node-count overrun versus the ideal:
	// parts may reach 1.10x ideal size.
	balanceSlack float64 = 0.10
	// edgeSlack is the allowed edge-mass overrun when EdgeBalanced.
	edgeSlack float64 = 0.30
)

// Multilevel computes a K-way edge-cut partitioning of g using the
// multilevel scheme: heavy-edge-matching coarsening, greedy
// graph-growing initial partitioning on the coarsest graph, and
// boundary Kernighan–Lin/FM refinement during uncoarsening. This plays
// the role of METIS in the paper.
//
// Edge weights are int32: a weight counts the fine edges it stands for,
// at most the graph's directed edge count, so Multilevel panics on a
// graph with 2^31 or more directed edges.
func Multilevel(g *graph.Graph, k int, cfg MultilevelConfig) *Partitioning {
	if g.NumEdges() > math.MaxInt32 {
		panic(fmt.Sprintf("partition: Multilevel takes fewer than 2^31 directed edges, graph has %d", g.NumEdges()))
	}
	if k <= 1 {
		return &Partitioning{Assign: make([]int32, g.NumNodes()), NumParts: max(k, 1)}
	}
	rng := graph.NewRNG(cfg.Seed)
	graphs, maps := hierarchy(g, k, cfg, rng)

	// Initial partition on the coarsest graph.
	coarsest := graphs[len(graphs)-1]
	assign := growInitial(coarsest, k, rng)
	refine(coarsest, assign, k, rng)

	// Uncoarsening with refinement at each level.
	for lvl := len(maps) - 1; lvl >= 0; lvl-- {
		fine := graphs[lvl]
		cmap := maps[lvl]
		fineAssign := make([]int32, fine.n())
		for v := range fineAssign {
			fineAssign[v] = assign[cmap[v]]
		}
		assign = fineAssign
		refine(fine, assign, k, rng)
	}
	return &Partitioning{Assign: assign, NumParts: k}
}

// hierarchy symmetrizes g, weights its vertices as cfg asks and
// coarsens it until at most k*coarsenTarget vertices are left or
// matching stalls. It returns the graphs, finest first, and the
// fine->coarse map of every step.
func hierarchy(g *graph.Graph, k int, cfg MultilevelConfig, rng *graph.RNG) ([]*wgraph, [][]int32) {
	w := symmetrize(g)
	if cfg.EdgeBalanced {
		for v := 0; v < w.n(); v++ {
			w.vw[v] = 1 + (w.xadj[v+1] - w.xadj[v])
		}
	}
	graphs := []*wgraph{w}
	var maps [][]int32
	for graphs[len(graphs)-1].n() > k*coarsenTarget {
		cur := graphs[len(graphs)-1]
		cmap, coarse := coarsen(cur, rng)
		if coarse.n() >= cur.n()*9/10 {
			break // matching stalled; further coarsening is pointless
		}
		graphs = append(graphs, coarse)
		maps = append(maps, cmap)
	}
	return graphs, maps
}

// wgraph is a weighted undirected graph used internally during
// coarsening, with weights accumulated on its edges. Vertices carry
// two weights: vw (the balance weight, edge mass under multi-constraint
// partitioning) and nw (collapsed original node count, always
// balanced).
//
// Every row is sorted by target, but a coarse row may list a target
// twice, with the weight split between the two entries (see coarsen).
// The split is kept on purpose: heavy-edge matching at the next level
// reads the entries' weights one by one, so merging them changes which
// pairs match and moves the assignment. Nothing else depends on the
// split: refinement sums a row's weights per part, growing skips
// assigned targets, and a target's entries sit next to each other.
type wgraph struct {
	xadj []int64
	adj  []int32
	adjw []int32 // edge weights
	vw   []int64 // balance weight (1, or 1+degree when edge-balanced)
	nw   []int64 // original node count
}

func (w *wgraph) n() int { return len(w.xadj) - 1 }

func sum64(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// caps computes the per-part weight ceilings for both constraints.
func caps(w *wgraph, k int) (vwCap, nwCap int64) {
	vwCap = int64(float64(sum64(w.vw)) / float64(k) * (1 + edgeSlack))
	nwCap = int64(float64(sum64(w.nw)) / float64(k) * (1 + balanceSlack))
	return
}

// starts turns the per-bucket counts held at ptr[b+1] into bucket start
// offsets, and returns a write cursor per bucket set to its start.
func starts(ptr []int64) []int64 {
	for b := 1; b < len(ptr); b++ {
		ptr[b] += ptr[b-1]
	}
	return append([]int64(nil), ptr[:len(ptr)-1]...)
}

// symmetrize converts the CSR graph into a weighted undirected wgraph,
// merging the u->v and v->u directions, repeated neighbours and
// self-loops. Each row lists its neighbours in the order their
// undirected edge is first met when g's rows are scanned by ascending
// v, whatever g's rows hold: unsorted, repeated or one-directional.
func symmetrize(g *graph.Graph) *wgraph {
	n := g.NumNodes()
	// lower[v] lists every x < v whose row lists v: the edges {x, v}
	// met before row v is scanned.
	lowPtr := make([]int64, n+1)
	for x := 0; x < n; x++ {
		for _, v := range g.Neighbors(graph.NodeID(x)) {
			if int(v) > x {
				lowPtr[v+1]++
			}
		}
	}
	cursor := starts(lowPtr)
	lower := make([]int32, lowPtr[n])
	for x := 0; x < n; x++ {
		for _, v := range g.Neighbors(graph.NodeID(x)) {
			if int(v) > x {
				lower[cursor[v]] = int32(x)
				cursor[v]++
			}
		}
	}
	// Before row v is scanned, stamp every x whose edge {x, v} is
	// already listed; within the row, stamp each neighbour as its edge
	// is listed. A neighbour stamped v is then a repeat.
	type edge struct{ u, v int32 }
	edges := make([]edge, 0, len(g.Indices)-len(lower)) // exact for a symmetric, duplicate-free g
	deg := make([]int64, n+1)
	stamp := make([]int32, n)
	for i := range stamp {
		stamp[i] = -1
	}
	for v := int32(0); v < int32(n); v++ {
		for _, x := range lower[lowPtr[v]:lowPtr[v+1]] {
			stamp[x] = v
		}
		for _, u := range g.Neighbors(v) {
			if u == v || stamp[u] == v {
				continue
			}
			stamp[u] = v
			a, b := min(u, v), max(u, v)
			edges = append(edges, edge{a, b})
			deg[a+1]++
			deg[b+1]++
		}
	}
	cursor = starts(deg)
	w := &wgraph{
		xadj: deg,
		adj:  make([]int32, deg[n]),
		adjw: make([]int32, deg[n]),
		vw:   make([]int64, n),
		nw:   make([]int64, n),
	}
	for v := range w.vw {
		w.vw[v] = 1
		w.nw[v] = 1
	}
	for _, e := range edges {
		w.adj[cursor[e.u]] = e.v
		w.adjw[cursor[e.u]] = 1
		cursor[e.u]++
		w.adj[cursor[e.v]] = e.u
		w.adjw[cursor[e.v]] = 1
		cursor[e.v]++
	}
	return w
}

// coarsen matches vertices by heavy-edge matching and collapses matched
// pairs, returning the fine->coarse map and the coarse graph.
func coarsen(w *wgraph, rng *graph.RNG) ([]int32, *wgraph) {
	n := w.n()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(n)
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		best := int32(-1)
		var bestW int32 = -1
		for i := w.xadj[v]; i < w.xadj[v+1]; i++ {
			u := w.adj[i]
			if match[u] != -1 {
				continue
			}
			if w.adjw[i] > bestW {
				bestW = w.adjw[i]
				best = u
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v
		}
	}
	// Number coarse vertices.
	cmap := make([]int32, n)
	for i := range cmap {
		cmap[i] = -1
	}
	var cn int32
	for v := 0; v < n; v++ {
		if cmap[v] != -1 {
			continue
		}
		cmap[v] = cn
		m := match[v]
		if m >= 0 && int(m) != v {
			cmap[m] = cn
		}
		cn++
	}
	// Accumulate both vertex weights.
	cvw := make([]int64, cn)
	cnw := make([]int64, cn)
	for v := 0; v < n; v++ {
		cvw[cmap[v]] += w.vw[v]
		cnw[cmap[v]] += w.nw[v]
	}
	// Gather coarse entries (target, weight) in fine-vertex order: fine
	// vertex v opens ents[run[v]:run[v+1]], all in coarse row cmap[v],
	// so no entry stores its row. stamp[cu] remembers only the last
	// coarse row to touch cu, so the two members of a pair far apart in
	// ID can each open an entry for cu: the repeated targets wgraph
	// describes. Each fine entry opens at most one coarse entry.
	type pair struct{ v, w int32 }
	ents := make([]pair, 0, len(w.adj))
	run := make([]int64, n+1)
	rowPtr := make([]int64, cn+1)
	toPtr := make([]int64, cn+1)
	stamp := make([]int32, cn)
	for i := range stamp {
		stamp[i] = -1
	}
	slot := make([]int, cn)
	for v := 0; v < n; v++ {
		cv := cmap[v]
		for i := w.xadj[v]; i < w.xadj[v+1]; i++ {
			cu := cmap[w.adj[i]]
			if cu == cv {
				continue
			}
			if stamp[cu] == cv {
				ents[slot[cu]].w += w.adjw[i]
				continue
			}
			stamp[cu] = cv
			slot[cu] = len(ents)
			ents = append(ents, pair{cu, w.adjw[i]})
			rowPtr[cv+1]++
			toPtr[cu+1]++
		}
		run[v+1] = int64(len(ents))
	}
	// Two stable counting passes, by target and then by row, leave
	// every row sorted by target. Each scatters (vertex, weight) pairs:
	// the first each entry's row into its target's bucket, the second
	// each target back into its row, over ents, which the first pass
	// leaves free. Both read their input in order; only the writes land
	// at random.
	byTo := make([]pair, len(ents))
	cursor := starts(toPtr)
	for v := 0; v < n; v++ {
		cv := cmap[v]
		for _, e := range ents[run[v]:run[v+1]] {
			byTo[cursor[e.v]] = pair{cv, e.w}
			cursor[e.v]++
		}
	}
	cursor = starts(rowPtr)
	for cu := int32(0); cu < cn; cu++ {
		for _, e := range byTo[toPtr[cu]:toPtr[cu+1]] {
			ents[cursor[e.v]] = pair{cu, e.w}
			cursor[e.v]++
		}
	}
	cw := &wgraph{
		xadj: rowPtr,
		adj:  make([]int32, len(ents)),
		adjw: make([]int32, len(ents)),
		vw:   cvw,
		nw:   cnw,
	}
	for i, e := range ents {
		cw.adj[i] = e.v
		cw.adjw[i] = e.w
	}
	return cmap, cw
}

// growInitial produces an initial K-way assignment of the coarsest
// graph by greedy graph growing under both balance constraints.
func growInitial(w *wgraph, k int, rng *graph.RNG) []int32 {
	n := w.n()
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	vwTarget := sum64(w.vw)/int64(k) + 1
	nwTarget := sum64(w.nw)/int64(k) + 1
	order := rng.Perm(n)
	cursor := 0
	nextSeed := func() int32 {
		for cursor < n {
			v := order[cursor]
			cursor++
			if assign[v] == -1 {
				return v
			}
		}
		return -1
	}
	for part := int32(0); part < int32(k); part++ {
		var vwSum, nwSum int64
		frontier := []int32{}
		grow := func(v int32) {
			assign[v] = part
			vwSum += w.vw[v]
			nwSum += w.nw[v]
			frontier = append(frontier, v)
		}
		if s := nextSeed(); s >= 0 {
			grow(s)
		}
		for vwSum < vwTarget && nwSum < nwTarget && len(frontier) > 0 {
			v := frontier[0]
			frontier = frontier[1:]
			for i := w.xadj[v]; i < w.xadj[v+1]; i++ {
				u := w.adj[i]
				if assign[u] != -1 || vwSum >= vwTarget || nwSum >= nwTarget {
					continue
				}
				grow(u)
			}
			if len(frontier) == 0 && vwSum < vwTarget && nwSum < nwTarget {
				if s := nextSeed(); s >= 0 {
					grow(s)
				} else {
					break
				}
			}
		}
	}
	// Stragglers go to the part with the lightest node weight.
	nwSums := make([]int64, k)
	for v := 0; v < n; v++ {
		if assign[v] >= 0 {
			nwSums[assign[v]] += w.nw[v]
		}
	}
	for v := 0; v < n; v++ {
		if assign[v] == -1 {
			best := 0
			for p := 1; p < k; p++ {
				if nwSums[p] < nwSums[best] {
					best = p
				}
			}
			assign[v] = int32(best)
			nwSums[best] += w.nw[v]
		}
	}
	return assign
}

// refine performs boundary FM-style refinement: sweeps over boundary
// vertices moving each to the adjacent part with the highest cut gain,
// subject to both balance constraints.
//
// conn[v*k+p] is the weight of v's edges into part p. One scan of the
// level builds it and a move updates only the mover's neighbours, so a
// visit costs O(k), not a row scan. int32 holds it: a row's weight sum
// is at most the input's directed edge count (see Multilevel). Every
// edge weight is at least 1, so v is on the boundary exactly when
// conn[v*k+p] > 0 for some p other than its part.
//
// Among feasible parts tied on the best gain, the one met first in v's
// row wins; only on such a tie is the row read.
func refine(w *wgraph, assign []int32, k int, rng *graph.RNG) {
	n := w.n()
	vwCap, nwCap := caps(w, k)
	vwSums := make([]int64, k)
	nwSums := make([]int64, k)
	conn := make([]int32, n*k)
	for v := 0; v < n; v++ {
		vwSums[assign[v]] += w.vw[v]
		nwSums[assign[v]] += w.nw[v]
		cv := conn[v*k : v*k+k]
		for i := w.xadj[v]; i < w.xadj[v+1]; i++ {
			cv[assign[w.adj[i]]] += w.adjw[i]
		}
	}
	feasible := func(v, p int32) bool {
		return vwSums[p]+w.vw[v] <= vwCap && nwSums[p]+w.nw[v] <= nwCap
	}
	for pass := 0; pass < refinePasses; pass++ {
		moved := 0
		order := rng.Perm(n)
		for _, v := range order {
			home := assign[v]
			cv := conn[int(v)*k : int(v)*k+k]
			bestPart, bestGain, ties := home, int32(0), 0
			for p, c := range cv {
				if c == 0 || int32(p) == home || !feasible(v, int32(p)) {
					continue
				}
				switch gain := c - cv[home]; {
				case gain > bestGain:
					bestPart, bestGain, ties = int32(p), gain, 1
				case gain == bestGain && ties > 0:
					ties++
				}
			}
			if ties == 0 {
				continue
			}
			if ties > 1 { // a tied part has conn > 0, so the row lists it
				for i := w.xadj[v]; ; i++ {
					p := assign[w.adj[i]]
					if p != home && cv[p]-cv[home] == bestGain && feasible(v, p) {
						bestPart = p
						break
					}
				}
			}
			vwSums[home] -= w.vw[v]
			vwSums[bestPart] += w.vw[v]
			nwSums[home] -= w.nw[v]
			nwSums[bestPart] += w.nw[v]
			assign[v] = bestPart
			for i := w.xadj[v]; i < w.xadj[v+1]; i++ {
				cu := conn[int(w.adj[i])*k:]
				cu[home] -= w.adjw[i]
				cu[bestPart] += w.adjw[i]
			}
			moved++
		}
		if moved == 0 {
			break
		}
	}
	rebalance(w, assign, k, nwCap, vwSums, nwSums, rng)
}

// rebalance force-moves boundary vertices out of node-overweight parts
// (graph growing and refinement can leave parts over the node cap when
// the two constraints conflict; node balance wins because it drives
// seed assignment and sampling load).
func rebalance(w *wgraph, assign []int32, k int, nwCap int64, vwSums, nwSums []int64, rng *graph.RNG) {
	n := w.n()
	for iter := 0; iter < 3; iter++ {
		over := false
		for p := 0; p < k; p++ {
			if nwSums[p] > nwCap {
				over = true
			}
		}
		if !over {
			return
		}
		order := rng.Perm(n)
		for _, v := range order {
			home := assign[v]
			if nwSums[home] <= nwCap {
				continue
			}
			// Move v to the lightest-by-node part.
			best := 0
			for p := 1; p < k; p++ {
				if nwSums[p] < nwSums[best] {
					best = p
				}
			}
			if int32(best) == home {
				continue
			}
			assign[v] = int32(best)
			nwSums[home] -= w.nw[v]
			nwSums[best] += w.nw[v]
			vwSums[home] -= w.vw[v]
			vwSums[best] += w.vw[v]
		}
	}
}
