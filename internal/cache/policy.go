// Package cache implements APT's unified feature store: hotness-based
// per-GPU feature caches configured per parallelization strategy
// (paper §3.2 "Cache configuration"), the machine-level placement of
// node features, and the global feature map that routes every read to
// GPU cache, peer GPU, local CPU, or remote CPU (paper §4.2).
package cache

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/graph"
)

// Policy selects which nodes a device caches, given dry-run access
// frequencies.
type Policy int

// Cache policies. The first three are the paper's per-strategy rules;
// PolicyDegree is the PaGraph-style baseline used by the cache-policy
// ablation.
const (
	// PolicyHotGlobal caches the globally most-accessed nodes
	// (GDP and NFP; every device caches the same set).
	PolicyHotGlobal Policy = iota
	// PolicyHotPartition caches the most-accessed nodes within the
	// device's own graph partition (SNP).
	PolicyHotPartition
	// PolicyHotPartitionPlus1Hop caches the most-accessed nodes among
	// the device's partition and its 1-hop neighborhood (DNP).
	PolicyHotPartitionPlus1Hop
	// PolicyDegree caches the highest in-degree nodes regardless of
	// measured access (ablation baseline).
	PolicyDegree
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyHotGlobal:
		return "hot-global"
	case PolicyHotPartition:
		return "hot-partition"
	case PolicyHotPartitionPlus1Hop:
		return "hot-partition+1hop"
	case PolicyDegree:
		return "degree"
	default:
		return "unknown"
	}
}

// SelectConfig parameterizes cache selection.
type SelectConfig struct {
	Policy Policy
	// Freq are dry-run access counts per node (nil allowed for
	// PolicyDegree).
	Freq []int64
	// Assign maps node -> partition/device for the partition policies.
	Assign []int32
	// Graph supplies 1-hop expansion for DNP and degrees for
	// PolicyDegree.
	Graph *graph.Graph
	// CapacityNodes is the maximum nodes one device may cache.
	CapacityNodes int
	// Devices is the device count.
	Devices int
}

// rankedLists returns, per device, up to k candidate nodes ranked by
// the policy's score (hottest first, ties broken by node ID).
func rankedLists(cfg SelectConfig, k int) [][]graph.NodeID {
	out := make([][]graph.NodeID, cfg.Devices)
	if k <= 0 {
		return out
	}
	switch cfg.Policy {
	case PolicyHotGlobal:
		top := topByScore(allNodes(len(cfg.Freq)), func(v graph.NodeID) int64 { return cfg.Freq[v] }, k)
		for d := range out {
			out[d] = append([]graph.NodeID(nil), top...)
		}
	case PolicyDegree:
		n := cfg.Graph.NumNodes()
		top := topByScore(allNodes(n), func(v graph.NodeID) int64 { return int64(cfg.Graph.Degree(v)) }, k)
		for d := range out {
			out[d] = append([]graph.NodeID(nil), top...)
		}
	case PolicyHotPartition:
		cands := partitionCandidates(cfg.Assign, cfg.Devices, nil)
		for d := range out {
			out[d] = topByScore(cands[d], func(v graph.NodeID) int64 { return cfg.Freq[v] }, k)
		}
	case PolicyHotPartitionPlus1Hop:
		cands := partitionCandidates(cfg.Assign, cfg.Devices, cfg.Graph)
		for d := range out {
			out[d] = topByScore(cands[d], func(v graph.NodeID) int64 { return cfg.Freq[v] }, k)
		}
	}
	return out
}

// Select returns, per device, the sorted list of cached node IDs.
func Select(cfg SelectConfig) [][]graph.NodeID {
	out := rankedLists(cfg, cfg.CapacityNodes)
	for d := range out {
		slices.Sort(out[d])
	}
	return out
}

// SelectTiered splits the policy's hotness ranking into two bands per
// device: the top CapacityNodes stay fp32 (hot), the next warmNodes
// are admitted to the int8 warm tier. The bands follow the same
// ranking a single-tier Select would use, so enabling the tier never
// evicts a row the fp32 cache would have held — it extends coverage
// downward into rows that would otherwise read from CPU memory.
func SelectTiered(cfg SelectConfig, warmNodes int) (hot, warm [][]graph.NodeID) {
	ranked := rankedLists(cfg, cfg.CapacityNodes+warmNodes)
	hot = make([][]graph.NodeID, cfg.Devices)
	warm = make([][]graph.NodeID, cfg.Devices)
	for d := range ranked {
		h := ranked[d]
		if len(h) > cfg.CapacityNodes {
			warm[d] = h[cfg.CapacityNodes:]
			h = h[:cfg.CapacityNodes]
		}
		hot[d] = h
		slices.Sort(hot[d])
		slices.Sort(warm[d])
	}
	return hot, warm
}

func allNodes(n int) []graph.NodeID {
	ns := make([]graph.NodeID, n)
	for i := range ns {
		ns[i] = graph.NodeID(i)
	}
	return ns
}

// partitionCandidates lists each device's cacheable node set: its
// partition, optionally expanded by the 1-hop in-neighborhood (the
// sources a DNP device must read to compute its destinations).
func partitionCandidates(assign []int32, devices int, g *graph.Graph) [][]graph.NodeID {
	cands := make([][]graph.NodeID, devices)
	for v, d := range assign {
		cands[d] = append(cands[d], graph.NodeID(v))
	}
	if g == nil {
		return cands
	}
	// seen[v] == d marks v as already in device d's list.
	seen := make([]int32, len(assign))
	for v := range seen {
		seen[v] = -1
	}
	for d := range cands {
		base := cands[d]
		for _, v := range base {
			seen[v] = int32(d)
		}
		for _, v := range base {
			for _, u := range g.Neighbors(v) {
				if seen[u] != int32(d) {
					seen[u] = int32(d)
					cands[d] = append(cands[d], u)
				}
			}
		}
	}
	return cands
}

// topByScore returns up to k candidates with the highest score,
// breaking ties by node ID for determinism. While every score fits in
// 32 bits, each candidate becomes one key — the score's complement
// above the ID — and ascending keys are that order, sorted with no
// comparator; larger scores sort (score, ID) pairs instead.
func topByScore(cands []graph.NodeID, score func(graph.NodeID) int64, k int) []graph.NodeID {
	keys := make([]uint64, len(cands))
	for i, v := range cands {
		s := score(v)
		if s < 0 || s > math.MaxUint32 {
			return topByScorePairs(cands, score, k)
		}
		keys[i] = uint64(math.MaxUint32-s)<<32 | uint64(uint32(v))
	}
	slices.Sort(keys)
	top := make([]graph.NodeID, min(k, len(keys)))
	for i := range top {
		top[i] = graph.NodeID(uint32(keys[i]))
	}
	return top
}

// topByScorePairs is topByScore's order over (score, ID) pairs, for
// scores a packed key cannot hold.
func topByScorePairs(cands []graph.NodeID, score func(graph.NodeID) int64, k int) []graph.NodeID {
	type scored struct {
		s int64
		v graph.NodeID
	}
	ps := make([]scored, len(cands))
	for i, v := range cands {
		ps[i] = scored{score(v), v}
	}
	slices.SortFunc(ps, func(a, b scored) int {
		if c := cmp.Compare(b.s, a.s); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	top := make([]graph.NodeID, min(k, len(ps)))
	for i := range top {
		top[i] = ps[i].v
	}
	return top
}
