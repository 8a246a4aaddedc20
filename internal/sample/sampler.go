package sample

import (
	"repro/internal/graph"
)

// Method selects the graph-sampling algorithm. APT treats sampling as
// a black box (paper §4.1): any method producing bipartite blocks
// works with every parallelization strategy.
type Method int

// Sampling methods.
const (
	// NodeWise samples up to Fanouts[i] neighbors per destination
	// (GraphSAGE-style; the paper's default, Figure 2).
	NodeWise Method = iota
	// LayerWise samples a per-layer budget of Fanouts[i] x |dst| nodes
	// from the union of the destinations' neighbors, with probability
	// proportional to degree (a simplified FastGCN/LADIES scheme), and
	// keeps all edges into the sampled set.
	LayerWise
	// Full takes every neighbor (no sampling); Fanouts still sets the
	// number of layers. Deterministic — useful for evaluation and
	// exact-equivalence tests.
	Full
)

// Config configures graph sampling.
type Config struct {
	// Fanouts lists per-layer neighbor sample counts ordered from the
	// seed layer downward, matching the paper's notation: [10, 5] means
	// the layer adjacent to the seeds samples 10 neighbors and the next
	// (the first layer of computation) samples 5. Under LayerWise the
	// per-layer node budget is Fanouts[i] x |dst|.
	//
	// Internally blocks are produced bottom-up, so Fanouts is consumed
	// in reverse.
	Fanouts []int
	// Method selects the sampling algorithm.
	Method Method
	// IncludeDstInSrc adds every destination node to its block's source
	// list (self-inclusion). Required by attention models (GAT needs
	// the destination's own projection); plain GraphSAGE per the
	// paper's Eq. (1) leaves it off.
	IncludeDstInSrc bool
}

// Sampler draws sampled subgraphs from a data graph. A Sampler is not
// safe for concurrent use; create one per worker, each over its own
// graph.NewRNG seed (the engine derives it from the seed and device).
// The pipelined engine runs each worker's sampler on that worker's
// prefetch goroutine, which preserves this contract.
type Sampler struct {
	g   *graph.Graph
	cfg Config
	rng *graph.RNG
	// keyed, set by SetKey, reseeds rng before each node-wise draw
	// from key and the (layer, node) it draws for.
	keyed bool
	key   uint64

	// stamp/epoch is scratch for within-call set membership
	// (pickNeighbors' Floyd sampling, sampleLayerWise's chosen set):
	// u is chosen iff stamp[u] == epoch.
	stamp []int32
	epoch int32
	// srcStamp/srcPos/srcGen is the per-layer dedup scratch: node u is
	// already in the block's src list iff srcStamp[u] == srcGen, at
	// position srcPos[u]. Both generations advance through nextGen.
	srcStamp []int32
	srcPos   []int32
	srcGen   int32
	picks    []graph.NodeID
}

// NewSampler creates a sampler over g.
func NewSampler(g *graph.Graph, cfg Config, rng *graph.RNG) *Sampler {
	s := &Sampler{
		g:        g,
		cfg:      cfg,
		rng:      rng,
		stamp:    make([]int32, g.NumNodes()),
		srcStamp: make([]int32, g.NumNodes()),
		srcPos:   make([]int32, g.NumNodes()),
	}
	return s
}

// SetKey makes every later node-wise draw a function of (key, layer,
// node): before the sampler draws node v's neighbours at layer l it
// reseeds its generator from a SplitMix64 hash of the three, so no
// state carries from one draw to the next and a batch samples every
// (l, v) exactly as a batch of v alone would. Full sampling draws
// nothing; LayerWise draws from the whole batch by definition, so it
// stays a sequential stream seeded from key and is not keyed. Online
// inference samples this way (engine.InferWorker).
func (s *Sampler) SetKey(key uint64) {
	s.rng.Reseed(key)
	s.key, s.keyed = s.rng.Uint64(), true
}

// RNGState returns the sampler's RNG stream position for
// checkpointing. The stamp/generation scratch is deliberately NOT part
// of the state: it only encodes set membership within one Sample call
// and never influences which nodes are drawn, so a fresh sampler with
// the same RNG state produces identical batches.
func (s *Sampler) RNGState() [4]uint64 { return s.rng.State() }

// SetRNGState repositions the sampler's RNG at a state captured by
// RNGState; it reports false (and changes nothing) for the degenerate
// all-zero state.
func (s *Sampler) SetRNGState(st [4]uint64) bool { return s.rng.SetState(st) }

// nextGen advances a stamp generation, which resets the stamped set
// in O(1). Generations are positive and stamps start at 0; when the
// counter leaves the positive range (the int32 wraparound, which a
// long-lived serving sampler reaches) the stamps are cleared and
// counting restarts at 1, so no stale stamp equals a live generation.
func nextGen(gen *int32, stamps []int32) int32 {
	*gen++
	if *gen <= 0 {
		clear(stamps)
		*gen = 1
	}
	return *gen
}

// Sample builds the mini-batch computation graph for the given seeds.
func (s *Sampler) Sample(seeds []graph.NodeID) *MiniBatch {
	L := len(s.cfg.Fanouts)
	blocks := make([]*Block, L)
	dst := seeds
	for l := L - 1; l >= 0; l-- {
		fanout := s.cfg.Fanouts[L-1-l]
		var b *Block
		switch s.cfg.Method {
		case LayerWise:
			b = s.sampleLayerWise(dst, fanout*len(dst))
		case Full:
			b = s.sampleLayer(l, dst, int(^uint(0)>>1))
		default:
			b = s.sampleLayer(l, dst, fanout)
		}
		blocks[l] = b
		dst = b.Src
	}
	return &MiniBatch{Seeds: seeds, Blocks: blocks}
}

// newEdgePtr returns a pooled CSR pointer array for n destinations
// with the leading 0 in place; entries 1..n are written by the caller
// (both sampling paths assign every one).
func newEdgePtr(n int) []int64 {
	ep := int64Slices.get(n + 1)[:n+1]
	ep[0] = 0
	return ep
}

// sampleLayerWise draws up to `budget` nodes from the union of the
// destinations' neighborhoods, with probability proportional to each
// candidate's multiplicity in that union (a degree-weighted FastGCN
// scheme), then connects every destination to its sampled neighbors.
func (s *Sampler) sampleLayerWise(dst []graph.NodeID, budget int) *Block {
	b := &Block{Dst: dst, EdgePtr: newEdgePtr(len(dst))}
	// Candidate pool with multiplicity = how many destinations list u.
	pool := nodeSlices.get(budget * 2)
	defer nodeSlices.put(pool)
	for _, v := range dst {
		pool = append(pool, s.g.Neighbors(v)...)
	}
	b.Src = nodeSlices.get(budget)
	b.SrcIdx = int32Slices.get(budget)
	gen := nextGen(&s.srcGen, s.srcStamp)
	addSrc := func(u graph.NodeID) int32 {
		if s.srcStamp[u] == gen {
			return s.srcPos[u]
		}
		p := int32(len(b.Src))
		b.Src = append(b.Src, u)
		s.srcStamp[u] = gen
		s.srcPos[u] = p
		return p
	}
	if s.cfg.IncludeDstInSrc {
		for _, v := range dst {
			addSrc(v)
		}
	}
	// Sample the pool by index; drawing uniform indices of the
	// multiplicity-weighted pool samples nodes with probability
	// proportional to their in-union degree. The chosen set lives in
	// the stamp scratch (pickNeighbors is not used on this path).
	chosenGen := nextGen(&s.epoch, s.stamp)
	nChosen := 0
	if len(pool) <= budget {
		for _, u := range pool {
			if s.stamp[u] != chosenGen {
				s.stamp[u] = chosenGen
				nChosen++
			}
		}
	} else {
		for tries := 0; nChosen < budget && tries < budget*4; tries++ {
			if u := pool[s.rng.Intn(len(pool))]; s.stamp[u] != chosenGen {
				s.stamp[u] = chosenGen
				nChosen++
			}
		}
	}
	for i, v := range dst {
		for _, u := range s.g.Neighbors(v) {
			if s.stamp[u] == chosenGen {
				b.SrcIdx = append(b.SrcIdx, addSrc(u))
			}
		}
		b.EdgePtr[i+1] = int64(len(b.SrcIdx))
	}
	return b
}

// sampleLayer samples up to fanout neighbors (without replacement) for
// each destination and assembles the bipartite block of layer l.
func (s *Sampler) sampleLayer(l int, dst []graph.NodeID, fanout int) *Block {
	b := &Block{
		Dst:     dst,
		EdgePtr: newEdgePtr(len(dst)),
	}
	// Edge capacity is exactly bounded: min(fanout, degree) per
	// destination. Under Full fanout is huge, so bound by degree sums
	// instead of multiplying.
	capHint := 0
	for _, v := range dst {
		d := len(s.g.Neighbors(v))
		if d > fanout {
			d = fanout
		}
		capHint += d
	}
	b.SrcIdx = int32Slices.get(capHint)
	b.Src = nodeSlices.get(capHint)
	// Position map: src node -> index in b.Src, held in the stamped
	// scratch arrays (O(1) reset between layers, no per-layer map).
	gen := nextGen(&s.srcGen, s.srcStamp)
	addSrc := func(u graph.NodeID) int32 {
		if s.srcStamp[u] == gen {
			return s.srcPos[u]
		}
		p := int32(len(b.Src))
		b.Src = append(b.Src, u)
		s.srcStamp[u] = gen
		s.srcPos[u] = p
		return p
	}
	if s.cfg.IncludeDstInSrc {
		for _, v := range dst {
			addSrc(v)
		}
	}
	for i, v := range dst {
		picks := s.pickNeighbors(l, v, fanout)
		for _, u := range picks {
			b.SrcIdx = append(b.SrcIdx, addSrc(u))
		}
		b.EdgePtr[i+1] = int64(len(b.SrcIdx))
	}
	return b
}

// pickNeighbors samples min(fanout, degree) distinct neighbors of v
// for layer l. The returned slice belongs to the sampler and is
// reused by its next call.
func (s *Sampler) pickNeighbors(l int, v graph.NodeID, fanout int) []graph.NodeID {
	nb := s.g.Neighbors(v)
	d := len(nb)
	s.picks = s.picks[:0]
	if d <= fanout {
		s.picks = append(s.picks, nb...)
		return s.picks
	}
	if s.keyed {
		s.rng.Reseed(s.key ^ uint64(l)<<32 ^ uint64(uint32(v)))
	}
	// Floyd's algorithm for sampling fanout distinct indices from [0,d).
	gen := nextGen(&s.epoch, s.stamp)
	chosen := s.picks
	for j := d - fanout; j < d; j++ {
		t := s.rng.Intn(j + 1)
		u := nb[t]
		if s.stamp[u] == gen {
			u = nb[j]
		}
		s.stamp[u] = gen
		chosen = append(chosen, u)
	}
	s.picks = chosen
	return s.picks
}
