package engine

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/strategy"
	"repro/internal/tensor"
)

// Every layer, under every strategy, is one walk of the paper's four
// stages (§4.2) around the two halves of an nn.Layer: Permute groups
// the block's work by the rank that will run it, Shuffle ships it,
// Execute runs the dense projection (and as much of the sparse half as
// the layer allows) where the input rows live, Reshuffle ships result
// rows back, and the block's own rank finishes. A strategy is a
// placement: which rank gets which rows, which input columns it
// multiplies, and how much of the layer it runs. The backward pass is
// the same walk transposed, with gradient rows travelling the reply
// route backwards. Strategies differ at layer 1 only (paper §3.1: "All
// strategies target the first layer"); every layer above runs GDP's
// placement on the rank's own output of the layer below.

// route says which rank runs a block's work (paper §3.1).
type route int

const (
	// routeNone keeps the block on the rank that sampled it.
	routeNone route = iota
	// routeBySource sends each edge to the rank owning its source node:
	// a destination with sources on a remote rank becomes a virtual
	// node there.
	routeBySource
	// routeByDest sends each destination, with its sampled adjacency, to
	// the rank managing its partition.
	routeByDest
	// routeBroadcast sends the whole block to every rank.
	routeBroadcast
)

// placement is what a strategy decides about a layer.
//
//	GDP     {routeNone,      all columns, whole layer}
//	DNP     {routeByDest,    all columns, whole layer}
//	SNP     {routeBySource,  all columns, projection}
//	NFP     {routeBroadcast, column shard, projection, holds partials}
type placement struct {
	route route
	// shard makes every rank multiply only its own share of the feature
	// columns by the matching weight rows, so replies are partial sums.
	shard bool
	// whole makes the serving rank also run Finish, so it runs the whole
	// layer; otherwise it runs the projection half, pre-summed per
	// destination when the layer allows, and the block's rank finishes.
	whole bool
	// holdsPartials charges the reply matrices to device memory from
	// forward to backward: a rank that materializes partials for every
	// rank's block is what overflows at large hidden sizes (paper
	// Fig. 10).
	holdsPartials bool
}

// upperPlacement runs every layer above the first: GDP's, on the
// worker's own block.
var upperPlacement = placement{route: routeNone, whole: true}

// placementAt returns layer l's placement.
func (e *Engine) placementAt(l int) *placement {
	if l == 0 {
		return &e.place
	}
	return &upperPlacement
}

func placementFor(e *Engine) (placement, error) {
	switch e.cfg.Kind {
	case strategy.GDP:
		return placement{route: routeNone, whole: true}, nil
	case strategy.DNP:
		return placement{route: routeByDest, whole: true}, nil
	case strategy.SNP:
		return placement{route: routeBySource}, nil
	case strategy.NFP:
		return placement{route: routeBroadcast, shard: true, holdsPartials: true}, nil
	}
	return placement{}, fmt.Errorf("engine: unsupported strategy %v", e.cfg.Kind)
}

// columns returns the feature columns rank c of n multiplies.
func (p *placement) columns(inDim, c, n int) (lo, hi int) {
	if !p.shard {
		return 0, inDim
	}
	return c * inDim / n, (c + 1) * inDim / n
}

// perDst reports whether replies carry one row per destination — the
// serving rank ran the aggregation, or the whole layer — rather than one
// per source.
func (p *placement) perDst(layer nn.Layer) bool { return p.whole || layer.PreSums() }

// replyShape returns the shape of the reply for block b, which is also
// the shape of the gradient that later travels the other way.
func (p *placement) replyShape(layer nn.Layer, b *sample.Block) (rows, width int) {
	rows, width = b.NumSrc(), layer.ProjWidth()
	if p.perDst(layer) {
		rows = b.NumDst()
	}
	if p.whole {
		width = layer.OutDim()
	}
	return rows, width
}

// sourcesOnly reports whether the Permute requests carry only sources:
// routed by source under a layer that cannot pre-sum, each owner
// projects its sources and the requester aggregates. Sender and
// receiver both read it from the placement they share.
func (p *placement) sourcesOnly(layer nn.Layer) bool {
	return p.route == routeBySource && !layer.PreSums()
}

// backwardIsLocal reports whether backward issues no collectives,
// letting the bucketed gradient sync keep its ring transfers in flight
// across the call (see gradSync's concurrency contract).
func (p *placement) backwardIsLocal() bool { return p.route == routeNone }

// adjRequest is the Permute-stage encoding of the work one rank ships
// to one peer: the destinations the peer is to aggregate, each with
// those of its sampled in-neighbors the peer owns or manages, or — when
// the layer cannot pre-sum under routeBySource (attention, paper §3.3)
// — only the unique sources the requester needs projected. Every rank
// shares the placement, so the receiver reads which of the two it got
// from its own placement, not from the message.
type adjRequest struct {
	// DstIdx are requester-local destination positions (reply routing).
	DstIdx []int32
	// DstIDs are their global IDs.
	DstIDs []graph.NodeID
	// EdgePtr/SrcIDs list each destination's sources.
	EdgePtr []int64
	SrcIDs  []graph.NodeID
}

func (q *adjRequest) wireBytes() int64 {
	return wireInts(len(q.DstIdx)) + wireInts(len(q.DstIDs)) +
		8*int64(len(q.EdgePtr)) + wireInts(len(q.SrcIDs))
}

// buildAdjRequests groups a block's edges by the rank that will
// aggregate them: the owner of each edge's source in the partition
// assignment, or — byDst — the owner of its destination, which then
// receives the destination even when it sampled no edges.
func buildAdjRequests(blk *sample.Block, n int, byDst bool, assign []int32) []*adjRequest {
	reqs := make([]*adjRequest, n)
	// Scratch: per-owner source list for the current destination.
	perOwner := make([][]graph.NodeID, n)
	var touched []int32
	for i, dstID := range blk.Dst {
		touched = touched[:0]
		var dstOwner int32
		if byDst {
			dstOwner = assign[dstID]
			touched = append(touched, dstOwner)
		}
		for _, si := range blk.DstSources(i) {
			u := blk.Src[si]
			o := dstOwner
			if !byDst {
				if o = assign[u]; len(perOwner[o]) == 0 {
					touched = append(touched, o)
				}
			}
			perOwner[o] = append(perOwner[o], u)
		}
		for _, o := range touched {
			q := reqs[o]
			if q == nil {
				q = &adjRequest{EdgePtr: []int64{0}}
				reqs[o] = q
			}
			q.DstIdx = append(q.DstIdx, int32(i))
			q.DstIDs = append(q.DstIDs, dstID)
			q.SrcIDs = append(q.SrcIDs, perOwner[o]...)
			q.EdgePtr = append(q.EdgePtr, int64(len(q.SrcIDs)))
			perOwner[o] = perOwner[o][:0]
		}
	}
	return reqs
}

// buildMiniBlock converts a shipped adjacency into a bipartite block
// with deduplicated sources, in first-seen order. When includeDst is set
// the destinations occupy the leading source positions (attention
// layers need their own projections). Membership uses the worker's
// generation-stamped scratch (see unionNodes); unionPos holds a member's
// position in the block.
func (w *worker) buildMiniBlock(q *adjRequest, includeDst bool) *sample.Block {
	b := &sample.Block{Dst: q.DstIDs, EdgePtr: q.EdgePtr, SrcIdx: make([]int32, len(q.SrcIDs))}
	gen := w.nextUnionGen()
	if w.unionPos == nil {
		w.unionPos = make([]int32, len(w.unionStamp))
	}
	add := func(u graph.NodeID) int32 {
		if w.unionStamp[u] != gen {
			w.unionStamp[u] = gen
			w.unionPos[u] = int32(len(b.Src))
			b.Src = append(b.Src, u)
		}
		return w.unionPos[u]
	}
	if includeDst {
		for _, v := range q.DstIDs {
			add(v)
		}
	}
	for i, u := range q.SrcIDs {
		b.SrcIdx[i] = add(u)
	}
	return b
}

// layerCtx carries one layer's forward state to its backward.
type layerCtx struct {
	// h is the layer's input above layer 0 (real mode): the worker's
	// output of the layer below, which the dense half read in row order.
	// Nil at layer 0, which reads the feature store.
	h *tensor.Matrix
	// pos[o] lists which of this rank's rows (destination positions, or
	// source positions when the layer cannot pre-sum) peer o's reply
	// carries, in reply order; nil when nothing was asked of o. Unused
	// under routeBroadcast and routeNone, whose replies carry every row.
	pos [][]int32
	// served[rq] is what this rank ran for requester rq: a block, or —
	// when only projections were asked for — a block of sources with no
	// destinations.
	served []*sample.Block
	// lcts[rq] is the Finish context of served[rq] when the serving rank
	// ran the whole layer.
	lcts []nn.LayerCtx
	// fin is the block's own Finish context.
	fin   nn.LayerCtx
	alloc int64
}

// permute builds the routed strategies' per-peer requests (the Permute
// stage), recording in ctx.pos which rows each peer's reply will carry.
func (p *placement) permute(w *worker, blk *sample.Block, layer nn.Layer, ctx *layerCtx) []payload {
	n, me := w.eng.Comm.NumDevices(), w.dev.ID
	ctx.pos = make([][]int32, n)
	payloads := make([]payload, n)
	assign := w.eng.cfg.Assign
	if p.sourcesOnly(layer) {
		// Unique sources per owner, in block order.
		srcIDs := make([][]graph.NodeID, n)
		for at, u := range blk.Src {
			o := assign[u]
			ctx.pos[o] = append(ctx.pos[o], int32(at))
			srcIDs[o] = append(srcIDs[o], u)
		}
		for o, ids := range srcIDs {
			if len(ids) > 0 {
				payloads[o] = payload{Data: &adjRequest{SrcIDs: ids}, Bytes: wireInts(len(ids))}
			}
		}
	} else {
		for o, q := range buildAdjRequests(blk, n, p.route == routeByDest, assign) {
			if q != nil {
				ctx.pos[o] = q.DstIdx
				payloads[o] = payload{Data: q, Bytes: q.wireBytes()}
			}
		}
	}
	// A rank's request to itself never leaves it.
	payloads[me].Bytes = 0
	for o := range payloads {
		w.stats.GraphA2ABytes += payloads[o].Bytes
		if o != me {
			w.stats.VirtualNodes += int64(len(ctx.pos[o]))
		}
	}
	return payloads
}

// forward returns layer l's output for the worker's own block (nil in
// accounting mode) plus the context for backward. h is the layer's
// input above layer 0: the worker's output of layer l-1.
func (p *placement) forward(w *worker, mb *sample.MiniBatch, l int, h *tensor.Matrix) (*tensor.Matrix, *layerCtx) {
	e, layer := w.eng, w.model.Layers[l]
	n, me := e.Comm.NumDevices(), w.dev.ID
	blk := mb.Blocks[l]
	lo, hi := p.columns(layer.InDim(), me, n)
	presum, perDst := layer.PreSums(), p.perDst(layer)
	ctx := &layerCtx{h: h, served: make([]*sample.Block, n)}

	// Permute + Shuffle: every rank learns what it is to run for whom.
	switch p.route {
	case routeNone:
		ctx.served[me] = blk
	case routeBroadcast:
		wire := blockWireBytes(blk)
		w.stats.GraphBcastBytes += wire * int64(n-1)
		for j, in := range w.allGather(device.StageBuild, payload{Data: blk, Bytes: wire}) {
			ctx.served[j] = in.Data.(*sample.Block)
		}
	default:
		srcOnly := p.sourcesOnly(layer)
		withDst := p.route == routeByDest && layer.NeedsDstInSrc()
		for rq, in := range w.allToAll(device.StageBuild, p.permute(w, blk, layer, ctx)) {
			q, _ := in.Data.(*adjRequest)
			switch {
			case q == nil:
			case srcOnly:
				ctx.served[rq] = &sample.Block{Src: q.SrcIDs, EdgePtr: []int64{0}}
			default:
				ctx.served[rq] = w.buildMiniBlock(q, withDst)
			}
		}
	}

	// Execute. At layer 0, feature reads for all requesters share one
	// deduplicated charge, and the kernels read the store through each
	// source list directly.
	if l == 0 {
		w.chargeUnionLoad(ctx.served)
	}
	replies := make([]payload, n)
	if p.whole {
		ctx.lcts = make([]nn.LayerCtx, n)
	}
	for rq, sb := range ctx.served {
		if sb == nil {
			continue
		}
		dense, sparse := layer.FLOPs(int64(sb.NumSrc()), int64(hi-lo), sb.NumEdges())
		w.chargeDense(dense)
		if perDst {
			w.chargeSparse(sparse)
		}
		bytes := wireFloats(p.replyShape(layer, sb))
		if w.real() {
			feats, idx := w.input(ctx, sb)
			x := nn.Project(layer, sb, feats, idx, lo, hi)
			if p.whole {
				x, ctx.lcts[rq] = layer.Finish(sb, x)
			}
			replies[rq].Mat = x
		} else {
			replies[rq].Bytes = bytes
		}
		if rq != me {
			w.stats.HiddenA2ABytes += bytes
		}
		if p.holdsPartials {
			ctx.alloc += bytes
		}
	}
	w.dev.Alloc(ctx.alloc)

	// Reshuffle: result rows travel back to the block's rank.
	back := replies
	if p.route != routeNone {
		back = w.allToAll(device.StageShuffle, replies)
	}
	if !perDst {
		_, sparse := layer.FLOPs(int64(blk.NumSrc()), int64(hi-lo), blk.NumEdges())
		w.chargeSparse(sparse)
	}
	if !w.real() {
		return nil, ctx
	}
	x := back[me].Mat
	if p.route != routeNone {
		// Assemble in ascending peer order. Rows that several peers
		// contribute to (column shards; pre-sums split by source owner)
		// are summed, the rest have one owner and are copied.
		x = tensor.Get(p.replyShape(layer, blk))
		for o, reply := range back {
			switch {
			case reply.Mat == nil:
			case p.route == routeBroadcast:
				x.AddInPlace(reply.Mat)
			case presum && !p.whole:
				for i, at := range ctx.pos[o] {
					row, part := x.Row(int(at)), reply.Mat.Row(i)
					for j := range row {
						row[j] += part[j]
					}
				}
			default:
				for i, at := range ctx.pos[o] {
					copy(x.Row(int(at)), reply.Mat.Row(i))
				}
			}
		}
	}
	if p.whole {
		return x, ctx
	}
	var out *tensor.Matrix
	out, ctx.fin = layer.Finish(blk, x)
	return out, ctx
}

// backward consumes the gradient w.r.t. the worker's layer-l output
// (nil in accounting mode) and returns the gradient w.r.t. the layer's
// input above layer 0 (nil at layer 0 and in accounting mode).
func (p *placement) backward(w *worker, mb *sample.MiniBatch, l int, ctx *layerCtx, dH *tensor.Matrix) *tensor.Matrix {
	e, layer := w.eng, w.model.Layers[l]
	n, me := e.Comm.NumDevices(), w.dev.ID
	blk := mb.Blocks[l]
	lo, hi := p.columns(layer.InDim(), me, n)
	presum, perDst := layer.PreSums(), p.perDst(layer)
	rows, width := p.replyShape(layer, blk)
	defer w.dev.Free(ctx.alloc)

	// Backward costs twice the forward, in all but one cell: sharded
	// columns under a pre-summing layer (NFP × GraphSAGE) have always
	// charged the forward amount once. EXPERIMENTS.md's tables are made
	// of these charges, so the irregularity is carried, not corrected.
	factor := 2.0
	if p.shard && presum {
		factor = 1
	}

	// The block's rank undoes Finish.
	if !perDst {
		_, sparse := layer.FLOPs(int64(blk.NumSrc()), int64(hi-lo), blk.NumEdges())
		w.chargeSparse(factor * sparse)
	}
	dX := dH
	if w.real() && !p.whole {
		dX = layer.FinishBackward(blk, ctx.fin, dH)
	}

	// Gradient rows travel the reply route backwards.
	var in []payload
	switch p.route {
	case routeNone:
	case routeBroadcast:
		out := payload{Mat: dX}
		wire := wireFloats(rows, width)
		if dX == nil {
			out.Bytes = wire // matrices account for themselves
		}
		w.stats.HiddenBcastBytes += wire * int64(n-1)
		in = w.allGather(device.StageShuffle, out)
	default:
		payloads := make([]payload, n)
		for o, pos := range ctx.pos {
			if pos == nil {
				continue
			}
			bytes := wireFloats(len(pos), width)
			if w.real() {
				g := tensor.New(len(pos), width)
				for i, at := range pos {
					copy(g.Row(i), dX.Row(int(at)))
				}
				payloads[o].Mat = g
			} else {
				payloads[o].Bytes = bytes
			}
			if o != me {
				w.stats.HiddenA2ABytes += bytes
			}
		}
		in = w.allToAll(device.StageShuffle, payloads)
	}

	// Every rank turns the gradients of what it served into parameter
	// gradients, and above layer 0 into the input gradient.
	var dIn *tensor.Matrix
	for rq, sb := range ctx.served {
		if sb == nil {
			continue
		}
		dense, sparse := layer.FLOPs(int64(sb.NumSrc()), int64(hi-lo), sb.NumEdges())
		w.chargeDense(factor * dense)
		if perDst {
			w.chargeSparse(factor * sparse)
		}
		if !w.real() {
			continue
		}
		g := dX
		if in != nil {
			g = in[rq].Mat
		}
		dS := g
		if p.whole {
			// g is this rank's to overwrite: the layer above's gradient
			// (the step's dLogits at the top), or the copy the requester
			// shipped.
			dS = layer.FinishBackward(sb, ctx.lcts[rq], g)
		}
		feats, idx := w.input(ctx, sb)
		dIn = nn.ProjectBackward(layer, sb, feats, idx, lo, hi, dS, ctx.h != nil)
		if dS != g {
			tensor.Put(dS)
		}
	}
	return dIn
}

// input returns the rows the dense half reads for served block sb:
// the feature store's rows sb.Src at layer 0, the layer input's rows in
// order above it.
func (w *worker) input(ctx *layerCtx, sb *sample.Block) (tensor.FeatSource, []int32) {
	if ctx.h != nil {
		return tensor.FS(ctx.h), tensor.Iota(sb.NumSrc())
	}
	return w.eng.cfg.Store.FeatView(w.dev.ID), sb.Src
}
