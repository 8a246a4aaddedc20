package engine

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/strategy"
)

// trainWorld2 runs a world-2 in-process GraphSAGE engine under k for
// `epochs` epochs and returns it.
func trainWorld2(t *testing.T, k strategy.Kind, epochs int) *Engine {
	t.Helper()
	f := newFixture(t, 2, 160)
	plan := sample.SplitEven(f.seeds, 2, graph.NewRNG(3))
	e, err := New(f.config(k, func() *nn.Model {
		return nn.NewGraphSAGE(f.dim, 8, f.classes, 2)
	}, plan, []int{4, 4}))
	if err != nil {
		t.Fatalf("engine (%s): %v", k, err)
	}
	for ep := 0; ep < epochs; ep++ {
		e.RunEpoch()
	}
	return e
}

// TestGradSyncDirectRace drives the per-worker gradient-sync protocol
// directly — beginStep / launchLayer / drainInFlight / finish — with
// one goroutine per rank, in both call shapes computeStep uses (GDP's
// straight-through and SNP/DNP's mid-step drain). Under -race (make
// verify) this pins the handshake between each step goroutine and the
// sync goroutine beginStep spawns: the req/ack/done channels are the
// only synchronization between them, so any racy access to bucket
// state surfaces here without needing a full training epoch.
func TestGradSyncDirectRace(t *testing.T) {
	e := trainWorld2(t, strategy.GDP, 1)
	layers := len(e.workers[0].model.Layers)
	for step := 0; step < 4; step++ {
		drain := step%2 == 0
		comm.RunParallel(len(e.workers), func(d int) {
			gs := e.workers[d].gsync
			gs.beginStep()
			for l := layers - 1; l >= 1; l-- {
				gs.launchLayer(l)
			}
			if drain {
				// The SNP/DNP shape: layer-1 backward issues collectives
				// of its own, so the in-flight buckets drain first.
				gs.drainInFlight()
			}
			gs.launchLayer(0)
			gs.finish()
		})
	}
}

// TestGradSyncOverlapTrace runs one epoch with span collection on and
// proves the backward overlap two ways:
//
//  1. Numerically: the exposed (train-charged) part of the gradient
//     allreduce is strictly smaller than its total modeled time — the
//     backward pass hid the rest.
//  2. On the trace: per step, the layer-1 bucket's allreduce span starts
//     strictly inside that step's train span on the compute-side axis
//     (the axis comm spans live on: the device track minus its sample
//     spans), i.e. the Chrome trace shows the transfer running while
//     backward compute is still in progress.
func TestGradSyncOverlapTrace(t *testing.T) {
	f := newFixture(t, 2, 160)
	plan := sample.SplitEven(f.seeds, 2, graph.NewRNG(3))
	cfg := f.config(strategy.GDP, func() *nn.Model {
		return nn.NewGraphSAGE(f.dim, 8, f.classes, 2)
	}, plan, []int{4, 4})
	col := obs.NewCollector()
	cfg.Spans = col
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := e.RunEpoch()

	if st.Totals.GradCommSec <= 0 {
		t.Fatal("GradCommSec not accumulated")
	}
	if st.Totals.GradExposedSec < 0 {
		t.Fatalf("negative GradExposedSec %v", st.Totals.GradExposedSec)
	}
	if st.Totals.GradExposedSec >= st.Totals.GradCommSec {
		t.Errorf("no overlap: exposed %v >= total %v",
			st.Totals.GradExposedSec, st.Totals.GradCommSec)
	}

	for dev := 0; dev < 2; dev++ {
		var devTrack, commTrack *obs.Track
		for _, tr := range col.Tracks() {
			switch tr.Name {
			case fmt.Sprintf("dev%d", dev):
				devTrack = tr
			case fmt.Sprintf("dev%d/comm", dev):
				commTrack = tr
			}
		}
		if devTrack == nil || commTrack == nil {
			t.Fatalf("dev %d: missing device or comm track", dev)
		}

		// Rebuild the compute-side axis: device spans minus sample time.
		type iv struct{ start, end float64 }
		var trains []iv
		clock := 0.0
		for _, s := range devTrack.Spans() {
			if s.Stage == "sample" {
				continue
			}
			if s.Stage == "train" {
				trains = append(trains, iv{clock, clock + s.Dur})
			}
			clock += s.Dur
		}

		var ars []obs.Span
		for _, s := range commTrack.Spans() {
			if s.Stage != "allreduce" {
				t.Fatalf("dev %d: unexpected comm span %q under GDP", dev, s.Stage)
			}
			if s.Bytes <= 0 {
				t.Errorf("dev %d: allreduce span carries no bytes", dev)
			}
			ars = append(ars, s)
		}
		// Two buckets (one per GraphSAGE layer) per step, reverse layer
		// order: the layer-1 bucket launches first.
		if len(ars) != 2*st.NumBatches {
			t.Fatalf("dev %d: %d allreduce spans, want %d (2 buckets x %d steps)",
				dev, len(ars), 2*st.NumBatches, st.NumBatches)
		}
		if len(trains) != st.NumBatches {
			t.Fatalf("dev %d: %d train spans, want %d", dev, len(trains), st.NumBatches)
		}
		for step := 0; step < st.NumBatches; step++ {
			first, second := ars[2*step], ars[2*step+1]
			if first.Step != 1 || second.Step != 0 {
				t.Fatalf("dev %d step %d: bucket layer order (%d, %d), want (1, 0)",
					dev, step, first.Step, second.Step)
			}
			tr := trains[step]
			if !(first.Start > tr.start && first.Start < tr.end-1e-12) {
				t.Errorf("dev %d step %d: layer-1 allreduce starts at %.9f, outside train span (%.9f, %.9f) — no visible overlap",
					dev, step, first.Start, tr.start, tr.end)
			}
		}
	}
}
