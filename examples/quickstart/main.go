// Quickstart: train a GraphSAGE model with APT's automatic strategy
// selection on a small synthetic graph, end to end in real mode.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// 1. Describe the job once: data (a synthetic Friendster-like
	//    graph with label-correlated features, stand-in for loading
	//    OGB data), model, sampling, devices. APT treats the model and
	//    the sampler as black boxes.
	spec := repro.JobSpec{
		Data: "FS", Scale: 0.05,
		Model: "sage", Hidden: 32, Layers: 2, Fanout: 10,
		Batch: 64, LR: 0.02, Devices: 4,
	}
	// 2. Build the dataset and the task (real mode, seed 1).
	ds, task, err := spec.Build(true, 1, func(s *repro.DatasetSpec) {
		s.HomophilyDegree = 10
		s.Classes = 8 // easier task at the example's tiny scale
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges, %d-dim features, %d classes\n",
		ds.Graph.NumNodes(), ds.Graph.NumEdges(), ds.FeatDim, ds.Classes)

	// 3. Train: APT profiles the platform, dry-runs one epoch, picks
	//    the fastest strategy, and trains.
	apt, err := repro.NewAPT(task)
	if err != nil {
		log.Fatal(err)
	}
	result, err := apt.Train(15)
	if err != nil {
		log.Fatal(err)
	}
	// The planner compares each strategy's unique costs: building the
	// computation graph, loading features, shuffling hidden embeddings.
	fmt.Printf("\nplanner estimates:\n%-6s %10s %10s %10s %10s\n", "strat", "build(s)", "load(s)", "shuffle(s)", "unique(s)")
	for _, e := range result.Estimates {
		fmt.Printf("%-6v %10.4f %10.4f %10.4f %10.4f\n", e.Kind, e.BuildSec, e.LoadSec, e.ShuffleSec, e.ComparableCost())
	}
	fmt.Printf("APT selected %v (planning took %.2fs wall)\n\n", result.Choice, result.PlanWallSeconds)
	for i, ep := range result.Epochs {
		fmt.Printf("epoch %d: loss %.4f, simulated epoch time %.4fs\n", i+1, ep.MeanLoss, ep.EpochTime())
	}

	// 4. Evaluate on held-out nodes.
	acc := repro.Evaluate(ds.Graph, result.Model, ds.Feats, ds.Labels,
		ds.TestSeeds, task.Sampling, 256, 1)
	fmt.Printf("\ntest accuracy: %.3f\n", acc)
}
