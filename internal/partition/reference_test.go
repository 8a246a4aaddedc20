package partition

import "repro/internal/graph"

// The partitioner keeps a per-vertex, per-part connectivity table in
// refine and builds coarse rows from a packed by-target pass in
// coarsen. The two functions below are the forms they replaced, kept
// as independent references: refineScan rebuilds a vertex's
// connectivity from its row at every visit, and coarsenTwoPass gathers
// each entry's row and weight by index in its by-row pass.
// TestRefineMatchesRowScan and TestCoarsenMatchesTwoPass hold the
// production functions to them bit for bit.

// refineScan is boundary FM-style refinement that rescans v's row at
// every visit. Parts enter touched in the order of their first
// appearance in the row, and a strictly larger gain is needed to
// replace the best, so among tied parts the first in row order wins.
func refineScan(w *wgraph, assign []int32, k int, rng *graph.RNG) {
	n := w.n()
	vwCap, nwCap := caps(w, k)
	vwSums := make([]int64, k)
	nwSums := make([]int64, k)
	for v := 0; v < n; v++ {
		vwSums[assign[v]] += w.vw[v]
		nwSums[assign[v]] += w.nw[v]
	}
	conn := make([]int64, k) // scratch: connectivity of v to each part
	touched := make([]int32, 0, 8)
	for pass := 0; pass < refinePasses; pass++ {
		moved := 0
		order := rng.Perm(n)
		for _, v := range order {
			home := assign[v]
			touched = touched[:0]
			boundary := false
			for i := w.xadj[v]; i < w.xadj[v+1]; i++ {
				p := assign[w.adj[i]]
				if conn[p] == 0 {
					touched = append(touched, p)
				}
				conn[p] += int64(w.adjw[i])
				if p != home {
					boundary = true
				}
			}
			if boundary {
				bestPart := home
				bestGain := int64(0)
				for _, p := range touched {
					if p == home {
						continue
					}
					if vwSums[p]+w.vw[v] > vwCap || nwSums[p]+w.nw[v] > nwCap {
						continue
					}
					gain := conn[p] - conn[home]
					if gain > bestGain {
						bestGain = gain
						bestPart = p
					}
				}
				if bestPart != home {
					vwSums[home] -= w.vw[v]
					vwSums[bestPart] += w.vw[v]
					nwSums[home] -= w.nw[v]
					nwSums[bestPart] += w.nw[v]
					assign[v] = bestPart
					moved++
				}
			}
			for _, p := range touched {
				conn[p] = 0
			}
		}
		if moved == 0 {
			break
		}
	}
	rebalance(w, assign, k, nwCap, vwSums, nwSums, rng)
}

// coarsenTwoPass is coarsen with the entries' rows kept in an array of
// their own (erow) and the by-target pass storing entry indices, so the
// by-row pass reads erow and ew at random.
func coarsenTwoPass(w *wgraph, rng *graph.RNG) ([]int32, *wgraph) {
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
	cvw := make([]int64, cn)
	cnw := make([]int64, cn)
	for v := 0; v < n; v++ {
		cvw[cmap[v]] += w.vw[v]
		cnw[cmap[v]] += w.nw[v]
	}
	erow := make([]int32, 0, len(w.adj))
	eto := make([]int32, 0, len(w.adj))
	ew := make([]int32, 0, len(w.adj))
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
				ew[slot[cu]] += w.adjw[i]
				continue
			}
			stamp[cu] = cv
			slot[cu] = len(ew)
			erow = append(erow, cv)
			eto = append(eto, cu)
			ew = append(ew, w.adjw[i])
			rowPtr[cv+1]++
			toPtr[cu+1]++
		}
	}
	byTo := make([]int32, len(eto))
	cursor := starts(toPtr)
	for e, cu := range eto {
		byTo[cursor[cu]] = int32(e)
		cursor[cu]++
	}
	cursor = starts(rowPtr)
	cw := &wgraph{
		xadj: rowPtr,
		adj:  make([]int32, len(eto)),
		adjw: make([]int32, len(eto)),
		vw:   cvw,
		nw:   cnw,
	}
	for cu := int32(0); cu < cn; cu++ {
		for _, e := range byTo[toPtr[cu]:toPtr[cu+1]] {
			p := cursor[erow[e]]
			cursor[erow[e]]++
			cw.adj[p] = cu
			cw.adjw[p] = ew[e]
		}
	}
	return cmap, cw
}
