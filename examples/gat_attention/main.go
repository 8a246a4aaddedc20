// Attention models: train GAT with APT in real mode. Attention changes
// the strategy trade-offs (paper §3.3 and Figure 10) — the destination
// needs a complete view of its sources, so SNP/NFP pay per-source
// "extra communication" while GDP and DNP attend locally;
// examples/strategy_compare prints that penalty per strategy.
//
//	go run ./examples/gat_attention
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	spec := repro.JobSpec{
		Data: "PS", Scale: 0.04,
		Model: "gat", Hidden: 8, Heads: 4, Layers: 2, Fanout: 10,
		Batch: 64, LR: 0.02, Devices: 4,
	}
	ds, task, err := spec.Build(true, 3, func(s *repro.DatasetSpec) {
		s.HomophilyDegree = 10
		s.Classes = 8
	})
	if err != nil {
		log.Fatal(err)
	}
	apt, err := repro.NewAPT(task)
	if err != nil {
		log.Fatal(err)
	}
	res, err := apt.Train(12)
	if err != nil {
		log.Fatal(err)
	}
	acc := repro.Evaluate(ds.Graph, res.Model, ds.Feats, ds.Labels,
		ds.TestSeeds, task.Sampling, 256, 1)
	fmt.Printf("GAT (4 heads x 8): APT chose %v; final loss %.4f, test accuracy %.3f\n",
		res.Choice, res.Epochs[len(res.Epochs)-1].MeanLoss, acc)
}
