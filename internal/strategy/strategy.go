// Package strategy defines the four parallelization strategies of the
// paper (§3.1) — graph data parallel, node feature parallel, source
// node parallel, and destination node parallel — together with their
// qualitative trade-off matrix (paper Table 1).
package strategy

import (
	"fmt"
	"strings"
)

// Kind identifies a parallelization strategy.
type Kind int

// The strategies.
const (
	// GDP (graph data parallel): each GPU processes its own seed nodes
	// end to end; only the model is synchronized.
	GDP Kind = iota
	// NFP (node feature parallel): input features and the layer-1
	// model are partitioned by dimension across GPUs.
	NFP
	// SNP (source node parallel): the graph is edge-cut partitioned;
	// each GPU aggregates the contributions of its own source nodes to
	// remote virtual nodes.
	SNP
	// DNP (destination node parallel, the paper's proposal): layer-1
	// destination nodes are shipped to their managing GPU, which
	// computes their full embeddings.
	DNP
)

// Core lists the four strategies APT's planner selects among.
var Core = []Kind{GDP, NFP, SNP, DNP}

var names = [...]string{GDP: "GDP", NFP: "NFP", SNP: "SNP", DNP: "DNP"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Parse converts a strategy name, canonical ("GDP") or lower case
// ("gdp"), to its Kind.
func Parse(s string) (Kind, error) {
	for k, name := range names {
		if s == name || s == strings.ToLower(name) {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("strategy: unknown strategy %q", s)
}

// NeedsPartition reports whether the strategy requires an edge-cut
// graph partitioning.
func (k Kind) NeedsPartition() bool { return k == SNP || k == DNP }

// Level grades a cost from low (0) to high (3) in the Table 1 matrix.
type Level int

// Cost levels.
const (
	Low Level = iota
	Medium
	High
	VeryHigh
)

// String implements fmt.Stringer.
func (l Level) String() string {
	return [...]string{"low", "medium", "high", "very-high"}[l]
}

// Tradeoff is one row of the paper's Table 1.
type Tradeoff struct {
	Kind              Kind
	ShuffleGraph      Level // cost of shuffling sampled subgraphs
	ShuffleFeature    Level // cost of loading/shuffling input features
	ShuffleHidden     Level // cost of shuffling hidden embeddings
	CacheLocality     Level // higher = better locality
	ExcessCache       bool  // can exploit cache beyond 1/C of features
	PartialAggr       bool  // performs partial aggregation
	RequiresPartition bool
}

// Table1 reproduces the paper's qualitative strategy comparison.
func Table1() []Tradeoff {
	return []Tradeoff{
		{Kind: GDP, ShuffleGraph: Low, ShuffleFeature: High, ShuffleHidden: Low, CacheLocality: Low, ExcessCache: true, PartialAggr: false, RequiresPartition: false},
		{Kind: NFP, ShuffleGraph: High, ShuffleFeature: Low, ShuffleHidden: VeryHigh, CacheLocality: High, ExcessCache: false, PartialAggr: true, RequiresPartition: false},
		{Kind: SNP, ShuffleGraph: Medium, ShuffleFeature: Low, ShuffleHidden: High, CacheLocality: High, ExcessCache: false, PartialAggr: true, RequiresPartition: true},
		{Kind: DNP, ShuffleGraph: Medium, ShuffleFeature: Medium, ShuffleHidden: Medium, CacheLocality: Medium, ExcessCache: true, PartialAggr: false, RequiresPartition: true},
	}
}
