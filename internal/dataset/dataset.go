// Package dataset provides the synthetic stand-ins for the paper's
// evaluation graphs (Table 2): OGBN-Papers100M, Friendster, and
// IGB260M. Real graphs of 10^8 nodes are not loadable here, so each
// preset is a laptop-scale RMAT graph whose *node-access skewness* —
// the property the paper shows determines the optimal strategy
// (Table 3) — is tuned to match the original's character: PS highly
// skewed, FS scattered, IM intermediate. Feature dimensions follow
// Table 2 (128 / 256 / 128).
package dataset

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Spec describes a synthetic dataset.
type Spec struct {
	// Name and Abbr follow the paper's naming.
	Name string
	Abbr string
	// NumNodes and AvgDegree size the graph (scaled down ~1000x from
	// the paper's originals, preserving average degree order).
	NumNodes  int
	AvgDegree int
	// FeatDim matches the paper's Table 2.
	FeatDim int
	// Classes is the label count.
	Classes int
	// SkewA is the RMAT quadrant weight controlling degree/access skew
	// (0.25 = uniform, larger = more skewed).
	SkewA float64
	// HomophilyDegree adds this many random same-class edges per node,
	// giving neighborhoods the label purity of real citation/social
	// graphs so the classification task is learnable. Zero disables.
	HomophilyDegree int
	// TrainFraction of nodes become training seeds.
	TrainFraction float64
	// Seed drives generation.
	Seed uint64
}

// Dataset is a materialized Spec.
type Dataset struct {
	Spec
	Graph *graph.Graph
	// Feats is nil unless built with features (accounting-mode
	// benchmarks skip them).
	Feats      *tensor.Matrix
	Labels     []int32
	TrainSeeds []graph.NodeID
	TestSeeds  []graph.NodeID
}

// FeatureBytes is the total input-feature footprint, the reference for
// cache-size fractions.
func (d *Dataset) FeatureBytes() int64 {
	return int64(d.NumNodes) * int64(d.FeatDim) * 4
}

// CacheBytesFraction converts a cache fraction (of total feature
// bytes) into a per-GPU cache budget. The paper's default — 4 GB per
// T4 against 52.9-128 GB of features — corresponds to roughly 3-8%.
func (d *Dataset) CacheBytesFraction(frac float64) int64 {
	return int64(frac * float64(d.FeatureBytes()))
}

// Presets returns the three evaluation datasets at the given scale
// multiplier (1.0 = default laptop scale).
func Presets(scale float64) []Spec {
	n := func(base int) int { return int(float64(base) * scale) }
	return []Spec{
		{
			Name: "papers-sim", Abbr: "PS",
			NumNodes: n(220_000), AvgDegree: 24, FeatDim: 128, Classes: 32,
			SkewA: 0.72, HomophilyDegree: 5, TrainFraction: 0.08, Seed: 1001,
		},
		{
			Name: "friendster-sim", Abbr: "FS",
			NumNodes: n(130_000), AvgDegree: 28, FeatDim: 256, Classes: 32,
			SkewA: 0.45, HomophilyDegree: 8, TrainFraction: 0.08, Seed: 1002,
		},
		{
			Name: "igb-sim", Abbr: "IM",
			NumNodes: n(260_000), AvgDegree: 20, FeatDim: 128, Classes: 32,
			SkewA: 0.57, HomophilyDegree: 6, TrainFraction: 0.08, Seed: 1003,
		},
	}
}

// ByAbbr finds a preset by its abbreviation, at a scale that must be
// finite and positive and leave the preset between one node and
// graph.NodeID's range.
func ByAbbr(abbr string, scale float64) (Spec, error) {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return Spec{}, fmt.Errorf("dataset: scale %v is not finite and positive", scale)
	}
	for _, s := range Presets(scale) {
		if s.Abbr != abbr && s.Name != abbr {
			continue
		}
		if s.NumNodes < 1 || s.NumNodes > math.MaxInt32 {
			return Spec{}, fmt.Errorf("dataset: scale %v gives %s %d nodes", scale, s.Abbr, s.NumNodes)
		}
		return s, nil
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q", abbr)
}

// featBlock is how many feature rows one worker task fills. It sizes
// tasks only: each block starts from its recorded RNG state, so the
// features are the same whatever the block size or the worker count.
const featBlock = 512

// Build materializes a spec. withFeatures additionally synthesizes
// label-correlated features (needed only for real-mode training).
//
// The RMAT edges and the feature rows are generated on every core,
// each chunk from the RNG state a sequential skip pass recorded for it
// (graph.RNG.Skip, SkipNormFloat32), and the final CSR is built while
// the features are generated: the dataset is the same bit for bit at
// any GOMAXPROCS.
func Build(spec Spec, withFeatures bool) *Dataset {
	rmat := graph.RMAT(graph.RMATConfig{
		GenerateConfig: graph.GenerateConfig{
			NumNodes: spec.NumNodes, AvgDegree: spec.AvgDegree, Seed: spec.Seed,
		},
		A: spec.SkewA,
		B: (1 - spec.SkewA) / 3,
		C: (1 - spec.SkewA) / 3,
	})
	d := &Dataset{Spec: spec}
	rng := graph.NewRNG(spec.Seed ^ 0xfeed)
	n := spec.NumNodes

	// Scatter RMAT's low-ID hub concentration uniformly over the ID
	// space before assigning class blocks: real graphs' hubs spread
	// across communities (and hence METIS partitions), instead of all
	// landing in one partition and turning its device into a hotspot.
	// Node x becomes remap[x]; the builder takes the renamed edges.
	remap := rng.Perm(n)
	inv := make([]graph.NodeID, n)
	b := graph.NewBuilder(n)
	for x := 0; x < n; x++ {
		inv[remap[x]] = graph.NodeID(x)
		for _, u := range rmat.Neighbors(graph.NodeID(x)) {
			b.AddEdge(remap[u], remap[x])
		}
	}

	// Labels: contiguous ID blocks map to classes.
	d.Labels = make([]int32, n)
	per := (n + spec.Classes - 1) / spec.Classes
	for v := 0; v < n; v++ {
		d.Labels[v] = int32(v / per)
	}

	// Homophily: same-class edges make neighborhoods label-informative
	// and give the graph the community structure real citation/social
	// graphs have (METIS-style partitioners depend on it, Fig. 11).
	// Targets within a class block are drawn proportionally to RMAT
	// degree, so the extra mass lands on the hubs the access skew
	// already concentrates on instead of diluting it.
	if spec.HomophilyDegree > 0 {
		// Per-block degree-endpoint pools: sampling a uniform element
		// picks a block member proportionally to its RMAT degree.
		pools := make([][]graph.NodeID, spec.Classes)
		for v := 0; v < n; v++ {
			c := int32(v) / int32(per)
			deg := rmat.Degree(inv[v])
			for i := 0; i < deg; i++ {
				pools[c] = append(pools[c], graph.NodeID(v))
			}
		}
		for v := 0; v < n; v++ {
			c := int(d.Labels[v])
			base := c * per
			hi := base + per
			if hi > n {
				hi = n
			}
			for i := 0; i < spec.HomophilyDegree; i++ {
				var u graph.NodeID
				// 20% uniform exploration keeps blocks connected; 80%
				// degree-proportional attachment targets block hubs.
				if len(pools[c]) == 0 || rng.Float64() < 0.2 {
					u = graph.NodeID(base + rng.Intn(hi-base))
				} else {
					u = pools[c][rng.Intn(len(pools[c]))]
				}
				if u != graph.NodeID(v) {
					b.AddUndirected(u, graph.NodeID(v))
				}
			}
		}
	}
	// The CSR is built beside the rest, which reads no graph.
	built := make(chan *graph.Graph, 1)
	go func() { built <- b.Build(true) }()

	// Train/test split over a TrainFraction sample of nodes.
	seedCount := int(spec.TrainFraction * float64(n))
	perm := rng.Perm(n)
	d.TrainSeeds = make([]graph.NodeID, seedCount)
	copy(d.TrainSeeds, perm[:seedCount])
	testCount := seedCount / 4
	d.TestSeeds = make([]graph.NodeID, testCount)
	copy(d.TestSeeds, perm[seedCount:seedCount+testCount])
	slices.Sort(d.TrainSeeds)
	slices.Sort(d.TestSeeds)

	if withFeatures {
		d.Feats = tensor.New(n, spec.FeatDim)
		blocks := make([]graph.RNG, (n+featBlock-1)/featBlock)
		for k := range blocks {
			blocks[k] = *rng
			rng.SkipNormFloat32(min(featBlock, n-k*featBlock) * spec.FeatDim)
		}
		graph.ForChunks(len(blocks), func(k int) {
			r := blocks[k]
			for v := k * featBlock; v < min(n, (k+1)*featBlock); v++ {
				row := d.Feats.Row(v)
				for j := range row {
					row[j] = 0.3 * r.NormFloat32()
				}
				// Inject the label signal into a class-specific coordinate.
				row[int(d.Labels[v])%spec.FeatDim] += 1
			}
		})
	}
	d.Graph = <-built
	return d
}
