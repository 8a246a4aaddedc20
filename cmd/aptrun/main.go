// Command aptrun trains a GNN with APT's automatic strategy selection
// on a synthetic dataset preset, reporting the planner's estimates,
// the chosen strategy, and per-epoch progress. It ends by printing an
// FNV-64a checksum over the trained parameters' exact bit patterns.
//
// Usage:
//
//	aptrun -data FS -model sage -hidden 32 -epochs 5
//	aptrun -data PS -model gat -strategy DNP   # pin a strategy
//
// Without -rank every device runs in this process. With -rank r it is
// rank r of a multi-process job over the TCP transport
// (internal/transport): every rank is launched with the identical
// flags plus its own -rank; rank 0 binds the -coord address and the
// others rendezvous against it — the torch.distributed tcp:// init
// pattern — and -devices is the world size. The whole task is a pure
// function of the shared flags, so the wire moves only per-batch
// payloads, and the engine's determinism makes the job bit-identical
// to the in-process run: a healthy job prints the same checksum on
// every rank, and the same one as aptrun without -rank.
//
//	aptrun -devices 2 -rank 0 -coord 127.0.0.1:29500 &
//	aptrun -devices 2 -rank 1 -coord 127.0.0.1:29500
//
// With -measure-wire each rank times the live collectives during
// startup and plans against the measured wire speeds (the WireStats
// cross-rank maximum keeps every rank's plan identical); otherwise
// planning uses the simulated hardware profile.
//
// In-process or as a rank, aptrun trains through core's one epoch loop
// (core.APT.TrainWithContext over the transport it built) and prints
// each epoch from APT.OnEpoch.
//
// Fault tolerance: with -ckpt-dir D a rolling training snapshot,
// D/snapshot.aptc, is written after every epoch (by rank 0 in a
// multi-process job); aptserve -checkpoint serves it. If the
// job dies, relaunching it with the same flags plus -resume continues
// from the last snapshot — bit-identically when the device count is
// unchanged (the checksum matches an uninterrupted run), or
// elastically onto a different one (parameters and optimizer state
// carry over, the plan is recomputed). -die-after n crashes the run
// after epoch n to exercise this path. -epochs counts TOTAL epochs: a
// job resumed at epoch 2 with -epochs 5 trains 3 more.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/transport"
)

func main() {
	spec := job.Flags(flag.CommandLine)
	var (
		epochs   = flag.Int("epochs", 5, "training epochs (total, across a resume)")
		pinned   = flag.String("strategy", "", "pin a strategy (GDP/NFP/SNP/DNP) instead of planning")
		simulate = flag.Bool("simulate", false, "accounting mode: no real training, timing only")
		explain  = flag.Bool("explain", false, "print the adapted execution plan before training")
		timeline = flag.Bool("timeline", false, "print per-step stage times for the last epoch")
		tracePth = flag.String("trace", "", "write a Chrome trace of the run's spans to this file (chrome://tracing); give each rank its own path")
		metrics  = flag.Bool("metrics", false, "dump the metrics registry (text exposition format) on exit")

		rank        = flag.Int("rank", -1, "run as this rank in [0, devices) of a multi-process job (-1: every device in-process)")
		coord       = flag.String("coord", "", "coordinator rendezvous address, e.g. 127.0.0.1:29500 (rank 0 binds it)")
		bind        = flag.String("bind", "", "host for this rank's data listener (default 127.0.0.1; set for multi-machine)")
		measureWire = flag.Bool("measure-wire", false, "calibrate the planner against measured collective wire speeds")
		ckptDir     = flag.String("ckpt-dir", "", "write a rolling training snapshot here after every epoch")
		resume      = flag.Bool("resume", false, "resume from the snapshot in -ckpt-dir instead of starting fresh")
		dieAfter    = flag.Int("die-after", 0, "simulate a crash (exit 3) after this many total completed epochs")
	)
	flag.Parse()
	if err := spec.Check(); err != nil {
		usage(err.Error())
	}
	ranked := *rank >= 0
	// Combinations that cannot work are refused here, before any
	// dataset is built or socket opened.
	var bad string
	switch {
	case *epochs < 1:
		bad = fmt.Sprintf("-epochs %d: need at least one epoch", *epochs)
	case *rank < -1 || *rank >= spec.Devices:
		bad = fmt.Sprintf("-rank %d outside [0, -devices %d)", *rank, spec.Devices)
	case ranked && *coord == "":
		bad = "-rank needs -coord (the address rank 0 binds)"
	case !ranked && (*coord != "" || *bind != "" || *measureWire):
		bad = "-coord, -bind and -measure-wire apply to a multi-process job: give -rank"
	case *resume && *ckptDir == "":
		bad = "-resume requires -ckpt-dir"
	}
	if bad != "" {
		usage(bad)
	}
	prefix := ""
	if ranked {
		prefix = fmt.Sprintf("[rank %d] ", *rank)
	}
	logf := func(format string, args ...any) { fmt.Printf(prefix+format+"\n", args...) }

	ds, task, err := spec.Build(!*simulate, 7, func(s *dataset.Spec) { s.HomophilyDegree = 6 })
	if err != nil {
		usage(err.Error()) // every job the flags cannot describe
	}

	tr := comm.NewChanTransport(spec.Devices) // every device in this process
	if ranked {
		tr, err = transport.NewTCP(transport.TCPOptions{
			Rank: *rank, World: spec.Devices, Coord: *coord, BindHost: *bind,
		})
		fatal(err)
		logf("connected: world %d via %s", spec.Devices, *coord)
	}
	if *measureWire {
		c := comm.NewWithTransport(device.NewGroup(task.Platform), tr)
		ws := transport.MeasureWire(c, *rank, 0, 0)
		task.ProfileOverride = ws.ApplyTo(comm.MeasureProfile(task.Platform))
		logf("measured wire: alltoall %.2e B/s  allgather %.2e B/s  allreduce %.2e B/s",
			ws.AllToAllBps, ws.AllGatherBps, ws.AllReduceBps)
	}

	var opts []obs.Option
	if *tracePth != "" {
		opts = append(opts, obs.WithTracePath(*tracePth))
	}
	if *timeline {
		// The per-step table is a view over the run's spans.
		opts = append(opts, obs.WithObserver(spansOnly{}))
	}
	var apt *core.APT
	if *resume {
		// Every rank restores the identical snapshot, exactly as every
		// rank rebuilds the identical task: resumed state is
		// configuration, so it never crosses the wire.
		snapPath := filepath.Join(*ckptDir, checkpoint.DefaultName)
		apt, err = core.ResumeFile(task, snapPath, opts...)
		fatal(err)
		logf("resuming from %s after %d epoch(s)", snapPath, apt.EpochBase())
	} else {
		apt, err = core.New(task, opts...)
		fatal(err)
	}
	apt.Transport = tr
	apt.CheckpointDir = *ckptDir

	var choice strategy.Kind
	if *pinned != "" {
		choice, err = strategy.Parse(*pinned)
		fatal(err)
		logf("strategy pinned to %v (planning skipped)", choice)
		if *explain {
			fmt.Println(engine.DescribePlan(choice, task.NewModel()))
		}
	} else {
		// Planning is deterministic in the task (and, under
		// -measure-wire, in the rank-agreed WireStats), so every rank
		// independently arrives at the same choice.
		choice, err = apt.Plan()
		fatal(err)
		if *explain {
			fmt.Println(apt.Report())
		} else {
			fmt.Printf("planner estimates (dry-run %.2fs wall):\n%s", apt.PlanWallSeconds,
				core.FormatEstimates(apt.Estimates))
			logf("APT selected: %v\n", choice)
		}
	}

	// No earlier span ends after the last epoch's first begins: read
	// the collector's end before that epoch, which is now if it is the
	// run's first.
	var lastEpochAt float64
	if *timeline {
		lastEpochAt = apt.Spans().MaxEnd()
	}
	apt.OnEpoch = func(ep int, st engine.EpochStats, m *nn.Model) {
		line := fmt.Sprintf("epoch %2d  sim %.4fs  wall %.3fs  %s", ep, st.EpochTime(), st.WallSec, st.String())
		if !*simulate {
			acc := engine.Evaluate(ds.Graph, m, ds.Feats, ds.Labels, ds.TestSeeds, task.Sampling, 256, 1)
			line += fmt.Sprintf("  loss %.4f  test-acc %.3f", st.MeanLoss, acc)
		}
		logf("%s", line)
		if *timeline && ep == *epochs-1 {
			lastEpochAt = apt.Spans().MaxEnd()
		}
	}
	// -die-after crashes at the first epoch boundary at or past it, so a
	// run resumed at or beyond it still trains one more epoch first.
	target, crash := *epochs, false
	if *dieAfter > 0 {
		if stop := max(*dieAfter, apt.EpochBase()+1); stop <= *epochs {
			target, crash = stop, true
		}
	}
	res, err := apt.TrainWithContext(context.Background(), choice, target)
	fatal(err)
	if crash {
		// Every rank gets the same -die-after, so the whole job dies at
		// the same epoch boundary, right after writing the snapshot the
		// relaunch will resume from. Close drains the writer goroutines
		// so the snapshot collective's payloads reach the peers before
		// this process disappears.
		logf("simulated crash after epoch %d", target)
		tr.Close()
		os.Exit(3)
	}
	if *timeline {
		fmt.Print(trace.RenderStepTable("per-step stage times (last epoch, max over devices):",
			apt.Spans(), device.StageNames(), lastEpochAt))
	}
	fatal(tr.Close())
	if *tracePth != "" {
		logf("chrome trace written to %s (load in chrome://tracing)", *tracePth)
		fmt.Print(trace.RenderSpanBars("per-track span totals:", apt.Spans(), nil))
	}
	if *metrics {
		fmt.Print(apt.Metrics().Exposition())
	}
	// The checksum covers this process's trained replica bit-for-bit;
	// the collectives keep replicas synchronized, so all ranks — and
	// the in-process run of the same flags — must agree.
	logf("params fnv64a %016x", res.Model.Checksum())
}

// spansOnly turns span collection on without a sink of its own: the
// per-step table reads the collector directly.
type spansOnly struct{}

func (spansOnly) ObserveSpans([]*obs.Track)    {}
func (spansOnly) ObserveMetrics(*obs.Registry) {}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "aptrun:", err)
		os.Exit(1)
	}
}

// usage refuses a flag set before anything is built or trained.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "aptrun:", msg)
	os.Exit(2)
}
