package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/strategy"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// orderedTrack asserts the track's spans are strictly time-ordered:
// each span starts no earlier than the previous one ends.
func orderedTrack(t *testing.T, tr *obs.Track) {
	t.Helper()
	spans := tr.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].End()-1e-9 {
			t.Errorf("track %s: span %d (%s) starts %.9f before span %d ends %.9f",
				tr.Name, i, spans[i].Stage, spans[i].Start, i-1, spans[i-1].End())
		}
	}
	for _, s := range spans {
		if s.Dur <= 0 {
			t.Errorf("track %s: non-positive span duration %g", tr.Name, s.Dur)
		}
	}
}

// TestSyncSpanEmission runs two synchronous epochs with span collection
// on and checks the device and comm tracks tell a consistent story:
// strictly ordered per track, all five stages present, comm spans from
// the gradient collective, and the second epoch extending (never
// rewinding) the trace timeline.
func TestSyncSpanEmission(t *testing.T) {
	f := newFixture(t, 2, 200)
	newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 8, f.classes, 2) }
	plan := sample.SplitEven(f.seeds, 2, graph.NewRNG(3))
	cfg := f.config(strategy.SNP, newModel, plan, []int{4, 4})
	col := obs.NewCollector()
	cfg.Spans = col
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st1 := e.RunEpoch()
	n1 := col.NumSpans()
	if n1 == 0 {
		t.Fatal("no spans collected")
	}
	st2 := e.RunEpoch()
	if col.NumSpans() <= n1 {
		t.Fatalf("second epoch added no spans (%d -> %d)", n1, col.NumSpans())
	}

	stages := map[string]bool{}
	commSpans := 0
	for _, tr := range col.Tracks() {
		orderedTrack(t, tr)
		for _, s := range tr.Spans() {
			if tr.Proc == "comm" {
				commSpans++
				if s.Bytes <= 0 {
					t.Errorf("comm span %q carries no bytes", s.Stage)
				}
			} else {
				stages[s.Stage] = true
			}
		}
	}
	for _, want := range []string{"sample", "build", "load", "train", "shuffle"} {
		if !stages[want] {
			t.Errorf("no %q span on any device track", want)
		}
	}
	if commSpans == 0 {
		t.Error("gradient allreduce left no comm spans")
	}
	if max := col.MaxEnd(); max > st1.EpochTime()+st2.EpochTime()+1e-9 {
		t.Errorf("trace extends to %.6f, beyond the two epochs' %.6f",
			max, st1.EpochTime()+st2.EpochTime())
	}
	if col.MaxEnd() <= st1.EpochTime() {
		t.Error("second epoch did not advance the trace timeline")
	}
}

// chromeEvent is the subset of a trace event the tests inspect.
type chromeEvent struct {
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Name string  `json:"name"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Args struct {
		Name string `json:"name"`
		Step int    `json:"step"`
	} `json:"args"`
}

// TestChromeTraceGoldenPipelined runs a deterministic two-device
// pipelined accounting epoch, exports the Chrome trace, and checks it
// against the golden file (regenerate with -update). It then validates
// the trace structurally: well-formed JSON, strictly time-ordered
// events per (pid, tid) track, and — the point of the pipeline —
// sampler spans for later steps overlapping device compute spans of
// earlier steps.
func TestChromeTraceGoldenPipelined(t *testing.T) {
	f := newFixture(t, 2, 200)
	newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 8, f.classes, 2) }
	cfg := f.config(strategy.SNP, newModel, nil, []int{4, 4})
	cfg.Store = cache.NewStore(f.platform, f.g.NumNodes(), f.dim, nil)
	cfg.Store.HostByRange()
	cfg.Labels = nil
	cfg.Pipeline = true
	col := obs.NewCollector()
	cfg.Spans = col
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := e.RunEpoch()
	if st.MeasuredPipelinedSec <= 0 {
		t.Fatal("pipelined epoch measured nothing")
	}
	var trace bytes.Buffer
	if err := obs.WriteChromeTrace(&trace, col); err != nil {
		t.Fatal(err)
	}
	got := trace.Bytes()

	golden := filepath.Join("testdata", "pipelined_trace.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (rerun with -update to regenerate): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("trace differs from golden %s (rerun with -update if the change is intended)", golden)
	}

	var file struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &file); err != nil {
		t.Fatalf("trace is not well-formed JSON: %v", err)
	}

	type key struct{ pid, tid int }
	trackName := map[key]string{}
	lastEnd := map[key]float64{}
	byTrack := map[string][]chromeEvent{}
	for _, ev := range file.TraceEvents {
		k := key{ev.Pid, ev.Tid}
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			trackName[k] = ev.Args.Name
		case ev.Ph == "X":
			if ev.Dur <= 0 {
				t.Errorf("event %q step %d has non-positive dur %g", ev.Name, ev.Args.Step, ev.Dur)
			}
			if ev.Ts < lastEnd[k]-1e-3 { // 1e-3 us = 1ns of simulated slack
				t.Errorf("track %s: event %q step %d at ts=%.3f overlaps previous end %.3f",
					trackName[k], ev.Name, ev.Args.Step, ev.Ts, lastEnd[k])
			}
			lastEnd[k] = ev.Ts + ev.Dur
			byTrack[trackName[k]] = append(byTrack[trackName[k]], ev)
		}
	}
	if len(byTrack["dev0"]) == 0 || len(byTrack["dev0/sampler"]) == 0 {
		t.Fatalf("expected device and sampler tracks, got %v", trackName)
	}

	// Prefetch overlap: on each device, some sampler span for step s
	// must overlap a compute span of an earlier step.
	for dev := 0; dev < 2; dev++ {
		name := "dev0"
		if dev == 1 {
			name = "dev1"
		}
		overlap := false
		for _, smp := range byTrack[name+"/sampler"] {
			if smp.Args.Step == 0 {
				continue
			}
			for _, cmp := range byTrack[name] {
				if cmp.Args.Step < smp.Args.Step &&
					smp.Ts < cmp.Ts+cmp.Dur && smp.Ts+smp.Dur > cmp.Ts {
					overlap = true
				}
			}
		}
		if !overlap {
			t.Errorf("%s: no sampler span overlaps an earlier step's compute span — pipeline overlap invisible", name)
		}
	}
}

// TestRunEpochContextCancel checks cancellation on both execution
// paths: an already-cancelled context stops the epoch before any step
// (collectively, so the lockstep collectives never deadlock), and the
// engine stays usable afterwards.
func TestRunEpochContextCancel(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		f := newFixture(t, 2, 200)
		newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 8, f.classes, 2) }
		plan := sample.SplitEven(f.seeds, 2, graph.NewRNG(3))
		cfg := f.config(strategy.GDP, newModel, plan, []int{4, 4})
		cfg.Pipeline = pipeline
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		st, err := e.RunEpochContext(ctx)
		if err != context.Canceled {
			t.Errorf("pipeline=%v: err = %v, want context.Canceled", pipeline, err)
		}
		if st.Totals.SeedsProcessed != 0 {
			t.Errorf("pipeline=%v: cancelled epoch still trained %d seeds",
				pipeline, st.Totals.SeedsProcessed)
		}
		// The engine must remain fully usable: a fresh epoch trains.
		st2, err := e.RunEpochContext(context.Background())
		if err != nil {
			t.Errorf("pipeline=%v: epoch after cancel failed: %v", pipeline, err)
		}
		if st2.Totals.SeedsProcessed == 0 {
			t.Errorf("pipeline=%v: epoch after cancel trained nothing", pipeline)
		}
	}
}

// TestRecordEpochMetrics folds an epoch into a registry and spot-checks
// the exposition.
func TestRecordEpochMetrics(t *testing.T) {
	f := newFixture(t, 2, 200)
	newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 8, f.classes, 2) }
	plan := sample.SplitEven(f.seeds, 2, graph.NewRNG(3))
	e, err := New(f.config(strategy.SNP, newModel, plan, []int{4, 4}))
	if err != nil {
		t.Fatal(err)
	}
	r := obs.NewRegistry()
	st := e.RunEpoch()
	RecordEpochMetrics(r, st)
	RecordEpochMetrics(r, e.RunEpoch())
	if got := r.Counter("apt_engine_epochs_total", "").Value(); got != 2 {
		t.Errorf("epochs_total = %d, want 2", got)
	}
	if r.Counter("apt_engine_seeds_total", "").Value() <= 0 {
		t.Error("seeds_total not accumulated")
	}
	if r.Gauge("apt_engine_epoch_seconds", "").Value() <= 0 {
		t.Error("epoch_seconds gauge empty")
	}
	_ = st
	exp := r.Exposition()
	for _, want := range []string{"apt_engine_epochs_total 2", "# TYPE apt_engine_epoch_seconds gauge"} {
		if !contains(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// nil registry is a no-op, not a panic.
	RecordEpochMetrics(nil, st)
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
