// Attention models: train GAT and show why attention changes the
// strategy trade-offs (paper §3.3 and Figure 10) — the destination
// needs a complete view of its sources, so SNP/NFP pay per-source
// "extra communication" while GDP and DNP attend locally.
//
//	go run ./examples/gat_attention
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/strategy"
	"repro/internal/trace"
)

func main() {
	// Part 1: real GAT training with APT on a small graph.
	spec := job.Spec{
		Data: "PS", Scale: 0.04,
		Model: "gat", Hidden: 8, Heads: 4, Layers: 2, Fanout: 10,
		Batch: 64, LR: 0.02, Devices: 4,
	}
	ds, task, err := spec.Build(true, 3, func(s *dataset.Spec) {
		s.HomophilyDegree = 10
		s.Classes = 8
	})
	if err != nil {
		log.Fatal(err)
	}
	apt, err := core.New(task)
	if err != nil {
		log.Fatal(err)
	}
	res, err := apt.Train(12)
	if err != nil {
		log.Fatal(err)
	}
	acc := engine.Evaluate(ds.Graph, res.Model, ds.Feats, ds.Labels,
		ds.TestSeeds, task.Sampling, 256, 1)
	fmt.Printf("GAT (4 heads x 8): APT chose %v; final loss %.4f, test accuracy %.3f\n\n",
		res.Choice, res.Epochs[len(res.Epochs)-1].MeanLoss, acc)

	// Part 2: the attention communication penalty, per strategy.
	// Same model on the full-size preset and all 8 GPUs, accounting mode.
	spec.Scale, spec.Devices = 0.15, 8
	_, task2, err := spec.Build(false, 3, nil)
	if err != nil {
		log.Fatal(err)
	}
	apt2, err := core.New(task2)
	if err != nil {
		log.Fatal(err)
	}
	choice, err := apt2.Plan()
	if err != nil {
		log.Fatal(err)
	}
	rows := []trace.Row{}
	for _, k := range strategy.Core {
		eng, err := apt2.BuildEngine(k)
		if err != nil {
			log.Fatal(err)
		}
		st := eng.RunEpoch()
		rows = append(rows, trace.StageRow(k.String(), st.SamplingBar(), st.LoadSec, st.TrainBar(), k == choice,
			fmt.Sprintf("hidden shuffle %.1f MB", float64(st.Totals.HiddenShuffleBytes())/1e6)))
	}
	fmt.Print(trace.RenderBars("GAT epoch decomposition: SNP/NFP ship per-source projections", rows))
}
