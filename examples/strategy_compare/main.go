// Strategy comparison: run all four parallelization strategies on the
// same task (accounting mode) and show the epoch-time decomposition
// the paper's figures report, with APT's selection marked — the
// "no consistent winner" observation on two different workloads.
//
//	go run ./examples/strategy_compare
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/strategy"
	"repro/internal/trace"
)

func main() {
	for _, cfg := range []struct {
		abbr   string
		hidden int
		why    string
	}{
		{"PS", 32, "skewed accesses: caching works, GDP avoids all shuffling"},
		{"FS", 8, "scattered accesses + tiny hidden dim: pushing compute to the features (SNP) wins"},
	} {
		spec := job.Spec{Data: cfg.abbr, Scale: 0.15, Hidden: cfg.hidden, Layers: 3, Fanout: 10, Devices: 8}
		_, task, err := spec.Build(false, 7, nil) // accounting mode: no feature payload
		if err != nil {
			log.Fatal(err)
		}
		apt, err := core.New(task)
		if err != nil {
			log.Fatal(err)
		}
		choice, err := apt.Plan()
		if err != nil {
			log.Fatal(err)
		}

		rows := []trace.Row{}
		for _, k := range strategy.Core {
			eng, err := apt.BuildEngine(k)
			if err != nil {
				log.Fatal(err)
			}
			st := eng.RunEpoch()
			rows = append(rows, trace.StageRow(k.String(), st.SamplingBar(), st.LoadSec, st.TrainBar(), k == choice, ""))
		}
		title := fmt.Sprintf("%s, GraphSAGE hidden %d — %s", cfg.abbr, cfg.hidden, cfg.why)
		fmt.Print(trace.RenderBars(title, rows))
		fmt.Printf("(* = APT's selection)\n\n")
	}
}
