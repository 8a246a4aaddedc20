// Quickstart: train a GraphSAGE model with APT's automatic strategy
// selection on a small synthetic graph, end to end in real mode.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/job"
)

func main() {
	// 1. Describe the job once: data (a synthetic Friendster-like
	//    graph with label-correlated features, stand-in for loading
	//    OGB data), model, sampling, devices. APT treats the model and
	//    the sampler as black boxes.
	spec := job.Spec{
		Data: "FS", Scale: 0.05,
		Model: "sage", Hidden: 32, Layers: 2, Fanout: 10,
		Batch: 64, LR: 0.02, Devices: 4,
	}
	// 2. Build the dataset and the task (real mode, seed 1).
	ds, task, err := spec.Build(true, 1, func(s *dataset.Spec) {
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
	apt, err := core.New(task)
	if err != nil {
		log.Fatal(err)
	}
	result, err := apt.Train(15)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplanner estimates:\n%s", core.FormatEstimates(result.Estimates))
	fmt.Printf("APT selected %v (planning took %.2fs wall)\n\n", result.Choice, result.PlanWallSeconds)
	for i, ep := range result.Epochs {
		fmt.Printf("epoch %d: loss %.4f, simulated epoch time %.4fs\n", i+1, ep.MeanLoss, ep.EpochTime())
	}

	// 4. Evaluate on held-out nodes.
	acc := engine.Evaluate(ds.Graph, result.Model, ds.Feats, ds.Labels,
		ds.TestSeeds, task.Sampling, 256, 1)
	fmt.Printf("\ntest accuracy: %.3f\n", acc)
}
