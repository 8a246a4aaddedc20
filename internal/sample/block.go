// Package sample implements mini-batch neighbor sampling for GNN
// training: node-wise fanout sampling (the paper's Figure 2 scheme) and
// the bipartite Block representation consumed by the unified execution
// engine.
package sample

import (
	"repro/internal/graph"
)

// Block is a bipartite computation graph for one GNN layer (a
// message-flow graph): embeddings of Dst nodes are computed by
// aggregating messages from Src nodes along Edges. IDs are global graph
// node IDs; edges reference Src by position.
type Block struct {
	// Dst lists destination nodes (deduplicated).
	Dst []graph.NodeID
	// Src lists source nodes (deduplicated). If the block was sampled
	// with IncludeDstInSrc, Src[:len(Dst)] == Dst.
	Src []graph.NodeID
	// EdgePtr/SrcIdx form a CSR over destinations: the sources feeding
	// Dst[i] are Src[SrcIdx[EdgePtr[i]:EdgePtr[i+1]]].
	EdgePtr []int64
	SrcIdx  []int32
}

// NumDst returns the destination count.
func (b *Block) NumDst() int { return len(b.Dst) }

// NumSrc returns the source count.
func (b *Block) NumSrc() int { return len(b.Src) }

// NumEdges returns the edge count.
func (b *Block) NumEdges() int64 { return b.EdgePtr[len(b.EdgePtr)-1] }

// DstDegree returns the in-degree of destination i.
func (b *Block) DstDegree(i int) int {
	return int(b.EdgePtr[i+1] - b.EdgePtr[i])
}

// DstSources returns the positions (into Src) of the sources of
// destination i. The slice aliases block storage.
func (b *Block) DstSources(i int) []int32 {
	return b.SrcIdx[b.EdgePtr[i]:b.EdgePtr[i+1]]
}

// MiniBatch is the sampled computation graph for one batch of seeds.
// Blocks are ordered bottom-up: Blocks[0] is the first layer of
// computation (the paper's "layer furthest from the seeds", whose Src
// nodes need input features) and Blocks[len-1].Dst are the seeds.
// Invariant: Blocks[l].Dst equals Blocks[l+1].Src element-wise.
type MiniBatch struct {
	Seeds  []graph.NodeID
	Blocks []*Block
}

// Layer1 returns the bottom block (the layer all four parallelization
// strategies target).
func (m *MiniBatch) Layer1() *Block { return m.Blocks[0] }
