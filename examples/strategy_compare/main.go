// Strategy comparison: run all four parallelization strategies on the
// same task (accounting mode) and show the epoch-time decomposition
// the paper's figures report, with APT's selection marked — the
// "no consistent winner" observation on four workloads: two datasets
// on one machine, a 4-machine cluster, and an attention model.
//
//	go run ./examples/strategy_compare
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	for _, c := range []struct {
		spec     repro.JobSpec
		seed     uint64
		platform *repro.Platform // nil: one machine with spec.Devices GPUs
		title    string
	}{
		{repro.JobSpec{Data: "PS", Scale: 0.15, Hidden: 32, Layers: 3, Fanout: 10, Devices: 8}, 7, nil,
			"PS, GraphSAGE hidden 32 — skewed accesses: caching works, GDP avoids all shuffling"},
		{repro.JobSpec{Data: "FS", Scale: 0.15, Hidden: 8, Layers: 3, Fanout: 10, Devices: 8}, 7, nil,
			"FS, GraphSAGE hidden 8 — scattered accesses + tiny hidden dim: pushing compute to the features (SNP) wins"},
		{repro.JobSpec{Data: "FS", Scale: 0.15, Hidden: 128, Layers: 3, Fanout: 10}, 7, repro.FourMachines4GPU(),
			"FS, GraphSAGE hidden 128, 4 machines x 4 GPUs over 100GbE — strategies that shuffle hidden embeddings across machines (SNP, NFP) degrade"},
		{repro.JobSpec{Data: "PS", Scale: 0.15, Model: "gat", Hidden: 8, Heads: 4, Layers: 2, Fanout: 10, Batch: 64, Devices: 8}, 3, nil,
			"PS, GAT 4 heads x 8 — attention needs every source: SNP/NFP ship per-source projections"},
	} {
		_, task, err := c.spec.Build(false, c.seed, nil) // accounting mode: no feature payload
		if err != nil {
			log.Fatal(err)
		}
		if c.platform != nil {
			task.Platform = c.platform
		}
		apt, err := repro.NewAPT(task)
		if err != nil {
			log.Fatal(err)
		}
		choice, err := apt.Plan()
		if err != nil {
			log.Fatal(err)
		}

		fmt.Println(c.title)
		fmt.Printf("  %-6s %10s %10s %10s %10s %12s\n", "", "sampling", "loading", "training", "epoch (s)", "shuffle (MB)")
		for _, k := range repro.CoreStrategies {
			res, err := apt.TrainWith(k, 1)
			if err != nil {
				log.Fatal(err)
			}
			st, mark := res.Epochs[0], " "
			if k == choice {
				mark = "*"
			}
			fmt.Printf("%s %-6v %10.4f %10.4f %10.4f %10.4f %12.1f\n", mark, k,
				st.SamplingBar(), st.LoadSec, st.TrainBar(), st.EpochTime(),
				float64(st.Totals.HiddenShuffleBytes())/1e6)
		}
		fmt.Printf("(* = APT's selection; training includes hidden-embedding shuffles)\n\n")
	}
}
