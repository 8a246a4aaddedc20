package nn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/graph"
	"repro/internal/sample"
	"repro/internal/tensor"
)

// Model is a stack of GNN layers applied block-by-block to a sampled
// mini-batch. Blocks[l] feeds layer l (bottom-up ordering; see package
// sample).
type Model struct {
	Name   string
	Layers []Layer
}

// Params returns all trainable parameters in a stable order.
func (m *Model) Params() []*Param {
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Init Glorot-initializes every parameter from rng; deterministic given
// the seed, so every worker replica starts identical.
func (m *Model) Init(rng *graph.RNG) {
	for _, p := range m.Params() {
		p.GlorotInit(rng)
	}
}

// ZeroGrad clears all parameter gradients.
func (m *Model) ZeroGrad() {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// NeedsDstInSrc reports whether any layer requires destination
// self-inclusion in block sources (true for GAT).
func (m *Model) NeedsDstInSrc() bool {
	for _, l := range m.Layers {
		if l.NeedsDstInSrc() {
			return true
		}
	}
	return false
}

// NumParamElements is the total scalar parameter count (the "small
// model" whose synchronization the paper treats as cheap).
func (m *Model) NumParamElements() int {
	n := 0
	for _, p := range m.Params() {
		n += p.NumElements()
	}
	return n
}

// Checksum is the FNV-64a hash of every parameter's exact f32 bit
// pattern in Params order: equal checksums mean bit-identical models
// (what aptrun prints per rank and the bit-identity tests compare).
func (m *Model) Checksum() uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range m.Params() {
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// ForwardState carries all layer contexts of a forward pass.
type ForwardState struct {
	Inputs []*tensor.Matrix // input to each layer
	Ctxs   []LayerCtx
	Logits *tensor.Matrix
}

// checkBlocks panics unless mb carries one block per layer.
func (m *Model) checkBlocks(mb *sample.MiniBatch) {
	if len(mb.Blocks) != len(m.Layers) {
		panic(fmt.Sprintf("nn: %d blocks for %d layers", len(mb.Blocks), len(m.Layers)))
	}
}

// Forward runs the full model on mini-batch mb with gathered input
// features x (rows aligned with mb.Blocks[0].Src).
func (m *Model) Forward(mb *sample.MiniBatch, x *tensor.Matrix) *ForwardState {
	return m.ForwardPartial(mb, 0, x)
}

// Backward propagates dLogits through all layers, accumulating
// parameter gradients; dLogits stays the caller's, unchanged. The
// gradient w.r.t. the input features is discarded (features are not
// trained) — so when layer 0 read the feature store (ForwardGathered),
// its backward stops at the weight gradient, with no dIn GEMM.
func (m *Model) Backward(mb *sample.MiniBatch, st *ForwardState, dLogits *tensor.Matrix) {
	d := m.BackwardPartial(mb, st, 0, dLogits, nil)
	if c, ok := st.Ctxs[0].(*featsCtx); ok {
		if d == dLogits {
			// A one-layer model: layer 0's FinishBackward may overwrite
			// its dOut, which here is the caller's.
			d = tensor.Get(dLogits.Rows, dLogits.Cols)
			copy(d.Data, dLogits.Data)
		}
		backwardFeats(m.Layers[0], mb.Blocks[0], c, d)
	} else {
		tensor.Put(m.Layers[0].Backward(mb.Blocks[0], st.Ctxs[0], d))
	}
	if d != dLogits {
		tensor.Put(d)
	}
}

// ReleaseActivations recycles every activation a forward state owns
// above fromLayer: the outputs of layers fromLayer..end, i.e.
// Inputs[fromLayer+1..] plus Logits. Inputs[fromLayer] itself (the
// caller-provided input) is left alone. The state and its layer
// contexts must not be used afterwards — call only after the backward
// pass is fully done with them.
func (m *Model) ReleaseActivations(st *ForwardState, fromLayer int) {
	for l := fromLayer + 1; l < len(m.Layers); l++ {
		tensor.Put(st.Inputs[l])
		st.Inputs[l] = nil
	}
	if fromLayer < len(m.Layers) {
		tensor.Put(st.Logits)
	}
	st.Logits = nil
}

// ForwardGathered is Forward with the input gather fused into layer 0:
// instead of materializing x = Gather(feats, idx), layer 0 runs as its
// two halves over the feature rows (feats, idx), the projection reading
// them through idx directly. idx must have Blocks[0].NumSrc() entries.
func (m *Model) ForwardGathered(mb *sample.MiniBatch, feats tensor.FeatSource, idx []int32) *ForwardState {
	m.checkBlocks(mb)
	h, ctx := forwardFeats(m.Layers[0], mb.Blocks[0], feats, idx)
	st := m.ForwardPartial(mb, 1, h)
	st.Ctxs[0] = ctx
	return st
}

// ForwardPartial runs layers [fromLayer, end) given h already computed
// for Blocks[fromLayer].Src — the one training forward loop. The unified
// engine calls it from layer 1, having executed layer 0 via a
// parallelization strategy.
func (m *Model) ForwardPartial(mb *sample.MiniBatch, fromLayer int, h *tensor.Matrix) *ForwardState {
	m.checkBlocks(mb)
	st := &ForwardState{
		Inputs: make([]*tensor.Matrix, len(m.Layers)),
		Ctxs:   make([]LayerCtx, len(m.Layers)),
	}
	for l := fromLayer; l < len(m.Layers); l++ {
		st.Inputs[l] = h
		out, ctx := m.Layers[l].Forward(mb.Blocks[l], h)
		st.Ctxs[l] = ctx
		h = out
	}
	st.Logits = h
	return st
}

// BackwardPartial propagates dLogits down to (and excluding) layer
// toLayer, returning the gradient w.r.t. Blocks[toLayer].Dst embeddings
// — i.e. the input gradient of layer toLayer+1. onLayer(l), when
// non-nil, runs right after layer l's backward has fully accumulated
// that layer's parameter gradients: the engine's DDP-style gradient
// sync uses it to launch a layer's allreduce bucket while the remaining
// (lower) layers are still computing.
func (m *Model) BackwardPartial(mb *sample.MiniBatch, st *ForwardState, toLayer int, dLogits *tensor.Matrix, onLayer func(l int)) *tensor.Matrix {
	d := dLogits
	for l := len(m.Layers) - 1; l > toLayer; l-- {
		nd := m.Layers[l].Backward(mb.Blocks[l], st.Ctxs[l], d)
		if d != dLogits { // recycle the intermediate gradient chain
			tensor.Put(d)
		}
		d = nd
		if onLayer != nil {
			onLayer(l)
		}
	}
	return d
}

// GradBuckets groups the parameters per layer in reverse layer order —
// the order backward completes them — for bucketed gradient
// synchronization: bucket i holds layer len(Layers)-1-i's parameters,
// so bucket 0 is ready first and the layer-0 bucket comes last. Every
// parameter appears in exactly one bucket.
func (m *Model) GradBuckets() [][]*Param {
	buckets := make([][]*Param, len(m.Layers))
	for l, layer := range m.Layers {
		buckets[len(m.Layers)-1-l] = layer.Params()
	}
	return buckets
}

// NewGraphSAGE builds the paper's default GraphSAGE: layers-1 hidden
// layers of width hidden with ReLU, and a linear classification layer.
func NewGraphSAGE(inDim, hidden, classes, layers int) *Model {
	m := &Model{Name: "GraphSAGE"}
	for l := 0; l < layers; l++ {
		in, out, act := hidden, hidden, ActReLU
		if l == 0 {
			in = inDim
		}
		if l == layers-1 {
			out, act = classes, ActNone
		}
		m.Layers = append(m.Layers, NewSAGELayer(fmt.Sprintf("sage%d", l), in, out, act))
	}
	return m
}

// NewGraphSAGEWithAgg is NewGraphSAGE with an explicit aggregator.
func NewGraphSAGEWithAgg(inDim, hidden, classes, layers int, agg Aggregator) *Model {
	m := NewGraphSAGE(inDim, hidden, classes, layers)
	for _, l := range m.Layers {
		l.(*SAGELayer).Agg = agg
	}
	return m
}

// NewGAT builds the paper's GAT: hidden layers with `heads` attention
// heads of width hiddenPerHead (concatenated), and a single-head linear
// output layer.
func NewGAT(inDim, hiddenPerHead, heads, classes, layers int) *Model {
	m := &Model{Name: "GAT"}
	for l := 0; l < layers; l++ {
		in := hiddenPerHead * heads
		if l == 0 {
			in = inDim
		}
		if l == layers-1 {
			m.Layers = append(m.Layers, NewGATLayer(fmt.Sprintf("gat%d", l), in, classes, 1, ActNone))
		} else {
			m.Layers = append(m.Layers, NewGATLayer(fmt.Sprintf("gat%d", l), in, hiddenPerHead, heads, ActReLU))
		}
	}
	return m
}
