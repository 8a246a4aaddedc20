// Command aptrun trains a GNN with APT's automatic strategy selection
// on a synthetic dataset preset, reporting the planner's estimates,
// the chosen strategy, and per-epoch progress.
//
// Usage:
//
//	aptrun -data FS -model sage -hidden 32 -epochs 5
//	aptrun -data PS -model gat -strategy DNP   # pin a strategy
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/strategy"
	"repro/internal/trace"
)

func main() {
	var (
		data     = flag.String("data", "FS", "dataset preset: PS, FS, or IM")
		scale    = flag.Float64("scale", 0.1, "dataset scale multiplier")
		model    = flag.String("model", "sage", "model: sage or gat")
		hidden   = flag.Int("hidden", 32, "hidden dimension (per head for gat)")
		heads    = flag.Int("heads", 4, "attention heads (gat)")
		layers   = flag.Int("layers", 2, "GNN layers")
		fanout   = flag.Int("fanout", 10, "neighbors sampled per layer")
		epochs   = flag.Int("epochs", 5, "training epochs")
		batch    = flag.Int("batch", 64, "per-GPU batch size")
		devices  = flag.Int("devices", 4, "GPUs")
		lr       = flag.Float64("lr", 0.01, "Adam learning rate")
		pinned   = flag.String("strategy", "", "pin a strategy (GDP/NFP/SNP/DNP/Hybrid) instead of planning")
		simulate = flag.Bool("simulate", false, "accounting mode: no real training, timing only")
		explain  = flag.Bool("explain", false, "print the adapted execution plan before training")
		timeline = flag.Bool("timeline", false, "print per-step stage times for the last epoch")
		save     = flag.String("save", "", "checkpoint the trained model to this file")
		tracePth = flag.String("trace", "", "write a Chrome trace of the run's spans to this file (chrome://tracing)")
		metrics  = flag.Bool("metrics", false, "dump the metrics registry (text exposition format) on exit")
	)
	flag.Parse()

	spec, err := dataset.ByAbbr(*data, *scale)
	fatal(err)
	spec.HomophilyDegree = 6
	ds := dataset.Build(spec, !*simulate)

	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, *devices)
	fanouts := make([]int, *layers)
	for i := range fanouts {
		fanouts[i] = *fanout
	}
	var newModel func() *nn.Model
	if *model == "gat" {
		newModel = func() *nn.Model {
			return nn.NewGAT(spec.FeatDim, *hidden, *heads, spec.Classes, *layers)
		}
	} else {
		newModel = func() *nn.Model {
			return nn.NewGraphSAGE(spec.FeatDim, *hidden, spec.Classes, *layers)
		}
	}
	task := core.Task{
		Graph:        ds.Graph,
		Feats:        ds.Feats,
		Labels:       ds.Labels,
		FeatDim:      spec.FeatDim,
		Seeds:        ds.TrainSeeds,
		NewModel:     newModel,
		NewOptimizer: func() nn.Optimizer { return nn.NewAdam(float32(*lr)) },
		Sampling:     sample.Config{Fanouts: fanouts},
		BatchSize:    *batch,
		Platform:     p,
		CacheBytes:   ds.CacheBytesFraction(0.08),
		Seed:         7,
	}
	var opts []obs.Option
	if *tracePth != "" {
		opts = append(opts, obs.WithTracePath(*tracePth))
	}
	if *timeline {
		// The per-step table is a view over the run's spans.
		opts = append(opts, obs.WithObserver(spansOnly{}))
	}
	apt, err := core.New(task, opts...)
	fatal(err)

	choice := strategy.GDP
	if *pinned != "" {
		choice, err = strategy.Parse(*pinned)
		fatal(err)
		fmt.Printf("strategy pinned to %v (planning skipped)\n", choice)
	} else {
		choice, err = apt.Plan()
		fatal(err)
		if *explain {
			fmt.Println(apt.Report())
		} else {
			fmt.Printf("planner estimates (dry-run %.2fs wall):\n%s", apt.PlanWallSeconds,
				core.FormatEstimates(apt.Estimates))
			fmt.Printf("APT selected: %v\n\n", choice)
		}
	}
	if *explain && *pinned != "" {
		fmt.Println(engine.DescribePlan(choice, newModel()))
	}
	eng, err := apt.BuildEngine(choice)
	fatal(err)
	var lastEpochAt float64
	for ep := 1; ep <= *epochs; ep++ {
		if *timeline && ep == *epochs {
			lastEpochAt = apt.Spans().MaxEnd() // no earlier span ends after this epoch's first begins
		}
		//apt:allow simclock CLI progress reporting; the wall epoch time is the clock the user waits on
		start := time.Now()
		st := eng.RunEpoch()
		//apt:allow simclock CLI progress reporting; the wall epoch time is the clock the user waits on
		wall := time.Since(start).Seconds()
		engine.RecordEpochMetrics(apt.Metrics(), st)
		line := fmt.Sprintf("epoch %2d  sim %.4fs  wall %.3fs  %s", ep, st.EpochTime(), wall, st.String())
		if !*simulate {
			acc := engine.Evaluate(ds.Graph, eng.Model(0), ds.Feats, ds.Labels,
				ds.TestSeeds, task.Sampling, 256, 1)
			line += fmt.Sprintf("  loss %.4f  test-acc %.3f", st.MeanLoss, acc)
		}
		fmt.Println(line)
	}
	if *timeline {
		fmt.Print(trace.RenderStepTable("per-step stage times (last epoch, max over devices):",
			apt.Spans(), device.StepStages[:], lastEpochAt))
	}
	if *save != "" {
		// A full training snapshot (params + optimizer moments + RNG
		// cursors), so the run can be resumed or served; aptserve's
		// -checkpoint flag accepts it directly.
		fatal(apt.CheckpointFile(*save))
		fmt.Printf("training snapshot written to %s\n", *save)
	}
	if *tracePth != "" {
		fatal(obs.WriteChromeTraceFile(*tracePth, apt.Spans()))
		fmt.Printf("chrome trace written to %s (load in chrome://tracing)\n", *tracePth)
		fmt.Print(trace.RenderSpanBars("per-track span totals:", apt.Spans(), nil))
	}
	if *metrics {
		fmt.Print(apt.Metrics().Exposition())
	}
}

// spansOnly turns span collection on without a sink of its own:
// aptrun drives the epochs itself and reads the collector directly.
type spansOnly struct{}

func (spansOnly) ObserveSpans([]*obs.Track)    {}
func (spansOnly) ObserveMetrics(*obs.Registry) {}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "aptrun:", err)
		os.Exit(1)
	}
}
