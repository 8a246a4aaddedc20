// Distributed training: 16 simulated GPUs across 4 machines connected
// by 100 Gbps Ethernet (the paper's multi-machine platform): the four
// strategies' epochs side by side, APT's pick marked.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/job"
	"repro/internal/strategy"
	"repro/internal/trace"
)

func main() {
	spec := job.Spec{Data: "FS", Scale: 0.15, Hidden: 128, Layers: 3, Fanout: 10}
	_, task, err := spec.Build(false, 7, nil)
	if err != nil {
		log.Fatal(err)
	}
	p := hardware.FourMachines4GPU()
	task.Platform = p
	fmt.Printf("platform: %d machines x %d GPUs, %s network shared per machine\n",
		p.Machines, p.GPUsPerMachine, "100GbE")

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
		rows = append(rows, trace.StageRow(k.String(), st.SamplingBar(), st.LoadSec, st.TrainBar(), k == choice,
			fmt.Sprintf("hidden shuffle %.1f MB", float64(st.Totals.HiddenShuffleBytes())/1e6)))
	}
	fmt.Print(trace.RenderBars("FS distributed, GraphSAGE hidden 128", rows))
	fmt.Println("\nInter-machine communication is the bottleneck: strategies that")
	fmt.Println("shuffle hidden embeddings across machines (SNP, NFP) degrade.")
}
