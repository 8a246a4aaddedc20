// Command aptpart partitions a graph for SNP/DNP training — the
// offline step the paper performs with DGL's partitioning tools on a
// cheap CPU machine. It generates a dataset preset's graph (or reads a
// SNAP-style text edge list), runs the requested partitioner and
// reports cut quality.
//
// Usage:
//
//	aptpart -data PS -parts 8                  # multilevel (METIS-like)
//	aptpart -data PS -parts 8 -algo random
//	aptpart -loadlist edges.txt -parts 4
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/partition"
)

func main() {
	var (
		data  = flag.String("data", "PS", "dataset preset: PS, FS, or IM")
		scale = flag.Float64("scale", 0.25, "dataset scale multiplier")
		list  = flag.String("loadlist", "", "load a text edge list (SNAP format) instead of generating")
		parts = flag.Int("parts", 8, "number of partitions (GPUs)")
		algo  = flag.String("algo", "multilevel", "partitioner: multilevel, random, or range")
		seed  = flag.Uint64("seed", 7, "random seed")
	)
	flag.Parse()

	var g *graph.Graph
	if *list != "" {
		f, err := os.Open(*list)
		fatal(err)
		g, err = graph.ReadEdgeList(f, graph.EdgeListOptions{Undirected: true, DropSelfLoops: true})
		f.Close()
		fatal(err)
		fmt.Printf("loaded edge list %s: %d nodes, %d edges\n", *list, g.NumNodes(), g.NumEdges())
	} else {
		spec, err := dataset.ByAbbr(*data, *scale)
		fatal(err)
		g = dataset.Build(spec, false).Graph
		fmt.Printf("generated %s: %d nodes, %d edges\n", spec.Name, g.NumNodes(), g.NumEdges())
	}
	st := graph.ComputeDegreeStats(g)
	fmt.Printf("degrees: mean %.1f, p99 %d, max %d, gini %.3f\n", st.Mean, st.P99, st.Max, st.GiniCoefficient)

	var p *partition.Partitioning
	switch *algo {
	case "multilevel":
		p = partition.Multilevel(g, *parts, partition.MultilevelConfig{Seed: *seed, EdgeBalanced: true})
	case "random":
		p = partition.Random(g, *parts, *seed)
	case "range":
		p = partition.Range(g, *parts)
	default:
		fatal(fmt.Errorf("unknown partitioner %q", *algo))
	}
	fatal(p.Validate(true))
	q := partition.Evaluate(g, p)
	fmt.Printf("%s into %d parts: edge cut %d (%.1f%% of edges), imbalance %.3f\n",
		*algo, *parts, q.EdgeCut, q.CutRatio*100, q.Imbalance)
	fmt.Printf("part sizes: %v\n", p.Sizes())
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "aptpart:", err)
		os.Exit(1)
	}
}
