// Command aptbench regenerates the paper's evaluation tables and
// figures on the simulated platform. Each experiment prints a
// plain-text report (stacked epoch-time bars with APT's selection
// starred, or a measured-vs-paper table).
//
// Usage:
//
//	aptbench -exp fig8a            # one experiment
//	aptbench -exp all -scale 0.25  # everything, quickly
//
// Experiment ids come from experiments.All; an unknown -exp lists them.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/obs"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment id, or all (an unknown id lists the valid ones)")
		scale  = flag.Float64("scale", 0.5, "dataset scale multiplier (1.0 = full laptop scale)")
		devs   = flag.Int("devices", 8, "GPUs on the single-machine platform")
		epochs = flag.Int("epochs", 2, "measured epochs per configuration")
		batch  = flag.Int("batch", 64, "per-GPU mini-batch size")
		out    = flag.String("o", "", "also append reports to this file")
		trace  = flag.String("trace", "", "run a pipelined training pass and write its Chrome trace to this file")
	)
	flag.Parse()

	if *trace != "" {
		traceRun(*trace, *scale, *devs, *epochs, *batch)
		return
	}

	var outFile *os.File
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aptbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		outFile = f
	}

	env := experiments.NewEnv(experiments.Options{
		Scale:     *scale,
		Devices:   *devs,
		Epochs:    *epochs,
		BatchSize: *batch,
	})

	ran := false
	for _, x := range experiments.All {
		if *exp != "all" && *exp != x.ID {
			continue
		}
		ran = true
		//apt:allow simclock CLI progress reporting; benchmark results themselves use the simulated clock
		start := time.Now()
		report, err := x.Run(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aptbench %s: %v\n", x.ID, err)
			os.Exit(1)
		}
		fmt.Print(report)
		//apt:allow simclock CLI progress reporting; benchmark results themselves use the simulated clock
		fmt.Printf("[%s completed in %.1fs wall]\n\n", x.ID, time.Since(start).Seconds())
		if outFile != nil {
			fmt.Fprint(outFile, report)
			fmt.Fprintln(outFile)
		}
	}
	if !ran {
		ids := make([]string, len(experiments.All))
		for i, x := range experiments.All {
			ids[i] = x.ID
		}
		fmt.Fprintf(os.Stderr, "aptbench: unknown experiment %q; valid ids: all %s\n", *exp, strings.Join(ids, " "))
		os.Exit(2)
	}
}

// traceRun captures one pipelined training run through the
// observability options: APT plans and trains with span collection on,
// the Chrome trace lands at path, and the run's metrics registry is
// dumped in the text exposition format.
func traceRun(path string, scale float64, devs, epochs, batch int) {
	spec := job.Spec{Data: "FS", Scale: scale, Hidden: 32, Layers: 2, Fanout: 10, Batch: batch, Devices: devs}
	// Accounting mode: timing structure only.
	_, task, err := spec.Build(false, 7, func(s *dataset.Spec) { s.HomophilyDegree = 6 })
	if err != nil {
		fmt.Fprintln(os.Stderr, "aptbench:", err)
		os.Exit(1)
	}
	task.Pipeline = true
	apt, err := core.New(task, obs.WithTracePath(path))
	if err != nil {
		fmt.Fprintln(os.Stderr, "aptbench:", err)
		os.Exit(1)
	}
	res, err := apt.Train(epochs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aptbench:", err)
		os.Exit(1)
	}
	fmt.Printf("traced %d pipelined epoch(s) under %v on %d devices\n",
		len(res.Epochs), res.Choice, devs)
	fmt.Printf("chrome trace written to %s (load in chrome://tracing)\n\n", path)
	fmt.Print(apt.Metrics().Exposition())
}
