package engine

import (
	"fmt"
	"strings"

	"repro/internal/nn"
	"repro/internal/strategy"
)

// DescribePlan renders the adapted execution plan for a strategy: the
// computation and communication operators the Adapt step inserts
// around the single-device kernels at each Permute / Shuffle / Execute
// / Reshuffle stage (paper §4.2). Purely informational — the layer
// walk executes exactly these plans from the strategy's placement.
func DescribePlan(k strategy.Kind, m *nn.Model) string {
	attention := m.NeedsDstInSrc()
	var b strings.Builder
	fmt.Fprintf(&b, "execution plan for %v (%s, %d layers):\n", k, m.Name, len(m.Layers))
	line := func(stage, op string) {
		fmt.Fprintf(&b, "  %-9s %s\n", stage+":", op)
	}
	switch k {
	case strategy.GDP:
		line("Permute", "none (blocks stay with their sampling device)")
		line("Shuffle", "none")
		line("Execute", "load features (cache -> CPU), full layer-1 kernel locally")
		line("Reshuffle", "none")
	case strategy.NFP:
		line("Permute", "encode layer-1 block into a contiguous chunk")
		line("Shuffle", "AllBroadcast all layer-1 computation graphs")
		if attention {
			line("Execute", "load feature shard, partial per-head projections for every block (nn.Project: gather-GEMM over the shard's columns)")
			line("Reshuffle", "AllToAll partial projections to block owners; owners sum and attend; backward AllBroadcast of projection gradients")
		} else {
			line("Execute", "load feature shard, partial projection + partial aggregation for every block (nn.Project: gather-GEMM over the shard's columns, then SegmentSum)")
			line("Reshuffle", "SparseAllreduce partial embeddings to destination owners; backward AllBroadcast of destination gradients")
		}
	case strategy.SNP:
		line("Permute", "group layer-1 edges by source-owner device; create virtual nodes")
		line("Shuffle", "AllToAll virtual-node subgraphs to source owners")
		if attention {
			line("Execute", "owners load + project their sources per head (no partial aggregation: attention needs the full source view)")
			line("Reshuffle", "AllToAll projected sources back (per unique source); requester attends; backward AllToAll of projection gradients")
		} else {
			line("Execute", "owners load their sources, project, partially aggregate per virtual node")
			line("Reshuffle", "GroupReduce partial embeddings at requesters (divide by true degree); backward AllToAll of virtual-node gradients")
		}
	case strategy.DNP:
		line("Permute", "group layer-1 destinations (with sampled adjacency) by managing device")
		line("Shuffle", "AllToAll destinations to their managers")
		line("Execute", "managers load source features (partition + 1-hop cache), full layer-1 kernel per destination")
		line("Reshuffle", "AllToAll finished embeddings back to requesters; backward AllToAll of destination gradients")
	}
	line("upper", fmt.Sprintf("layers 2..%d data-parallel; gradient AllReduce; identical optimizer step per replica", len(m.Layers)))
	return b.String()
}
