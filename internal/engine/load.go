package engine

import (
	"repro/internal/graph"
	"repro/internal/sample"
)

// chargeUnionLoad charges the deduplicated union of several blocks'
// source lists (nil blocks skipped) as one store read (a GPU would batch
// the step's feature gathers the same way). Without the dedup, a device
// serving several requesters (SNP/DNP Execute) or several broadcast
// blocks (NFP) would pay for popular nodes once per requester. Nothing is copied: the gather-fused
// kernels read the master feature matrix through each list directly,
// so the load reduces to accounting.
func (w *worker) chargeUnionLoad(blocks []*sample.Block) {
	union := w.unionNodes(blocks)
	w.stats.Load.Add(w.eng.cfg.Store.Charge(w.dev, union))
}

// nextUnionGen starts a new dedup pass over the stamp scratch: node u
// is a member of the pass iff unionStamp[u] equals the returned
// generation.
func (w *worker) nextUnionGen() int32 {
	if w.unionStamp == nil {
		w.unionStamp = make([]int32, w.eng.cfg.Graph.NumNodes())
	}
	w.unionGen++
	if w.unionGen == 0 { // generation wrapped: stale stamps could collide
		for i := range w.unionStamp {
			w.unionStamp[i] = 0
		}
		w.unionGen = 1
	}
	return w.unionGen
}

// unionNodes deduplicates the concatenation of the blocks' source lists
// into the worker's
// reusable union buffer. Membership uses a generation-stamped array
// indexed by node ID instead of a per-call map: one int32 per graph
// node, allocated once per worker and "cleared" by bumping the
// generation (the sampler dedups block sources the same way), so
// steady-state steps allocate nothing here.
func (w *worker) unionNodes(blocks []*sample.Block) []graph.NodeID {
	gen := w.nextUnionGen()
	union := w.unionBuf[:0]
	for _, b := range blocks {
		if b == nil {
			continue
		}
		for _, u := range b.Src {
			if w.unionStamp[u] != gen {
				w.unionStamp[u] = gen
				union = append(union, u)
			}
		}
	}
	w.unionBuf = union
	return union
}
