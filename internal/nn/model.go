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

// ForwardState carries every layer's context of a forward pass to
// Backward.
type ForwardState struct {
	Logits *tensor.Matrix
	ctxs   []featsCtx
}

// checkBlocks panics unless mb carries one block per layer.
func (m *Model) checkBlocks(mb *sample.MiniBatch) {
	if len(mb.Blocks) != len(m.Layers) {
		panic(fmt.Sprintf("nn: %d blocks for %d layers", len(mb.Blocks), len(m.Layers)))
	}
}

// ForwardGathered runs the model on mini-batch mb, every layer as its
// two halves (forwardFeats): layer 0's projection reads the feature
// rows (feats, idx) directly, with no gathered copy, and each layer
// above reads the one below's output in row order. idx must have
// Blocks[0].NumSrc() entries.
func (m *Model) ForwardGathered(mb *sample.MiniBatch, feats tensor.FeatSource, idx []int32) *ForwardState {
	m.checkBlocks(mb)
	st := &ForwardState{ctxs: make([]featsCtx, len(m.Layers))}
	var h *tensor.Matrix
	for l, layer := range m.Layers {
		if l > 0 {
			feats, idx = tensor.FS(h), tensor.Iota(h.Rows)
		}
		c := &st.ctxs[l]
		c.feats, c.idx = feats, idx
		h, c.fin = forwardFeats(layer, mb.Blocks[l], feats, idx)
	}
	st.Logits = h
	return st
}

// Backward propagates dLogits through all layers, accumulating
// parameter gradients; dLogits stays the caller's, unchanged (it is
// copied once: a layer's FinishBackward may overwrite its dOut). The
// input gradient of layer 0 is never formed — raw features are not
// trained — so its backward stops at the weight gradient.
func (m *Model) Backward(mb *sample.MiniBatch, st *ForwardState, dLogits *tensor.Matrix) {
	d := tensor.Get(dLogits.Rows, dLogits.Cols)
	copy(d.Data, dLogits.Data)
	for l := len(m.Layers) - 1; l >= 0; l-- {
		dIn := backwardFeats(m.Layers[l], mb.Blocks[l], &st.ctxs[l], d, l > 0)
		tensor.Put(d)
		d = dIn
	}
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
