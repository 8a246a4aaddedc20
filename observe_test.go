package repro_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// TestStrategyRoundTrip is the facade's name round-trip table:
// ParseStrategy is the inverse of Strategy.String for every strategy,
// in canonical and lower case, and rejects unknown names.
func TestStrategyRoundTrip(t *testing.T) {
	for _, k := range repro.CoreStrategies {
		name := k.String()
		for _, s := range []string{name, strings.ToLower(name)} {
			got, err := repro.ParseStrategy(s)
			if err != nil {
				t.Errorf("ParseStrategy(%q): %v", s, err)
				continue
			}
			if got != k {
				t.Errorf("ParseStrategy(%q) = %v, want %v", s, got, k)
			}
		}
	}
	for _, bad := range []string{"", "gdp ", "PDQ", "Hybrid", "hybrid"} {
		if _, err := repro.ParseStrategy(bad); err == nil {
			t.Errorf("ParseStrategy(%q) accepted an unknown name", bad)
		}
	}
}

// spyObserver records what the flush delivered.
type spyObserver struct {
	spans   int
	metrics string
}

func (o *spyObserver) ObserveSpans(tracks []*repro.SpanTrack) {
	for _, tr := range tracks {
		o.spans += tr.Len()
	}
}

func (o *spyObserver) ObserveMetrics(r *repro.MetricsRegistry) {
	o.metrics = r.Exposition()
}

// TestFacadeObservability drives training through the redesigned
// facade with both observability options attached: the Chrome trace
// file appears on disk with span events, the observer sees spans and
// metrics, and the registry carries the epoch series.
func TestFacadeObservability(t *testing.T) {
	spec := repro.DatasetPresets(0.03)[0]
	spec.Classes = 4
	ds := repro.BuildDataset(spec, false) // accounting mode: no features

	task := repro.Task{
		Graph:   ds.Graph,
		FeatDim: spec.FeatDim,
		Seeds:   ds.TrainSeeds,
		NewModel: func() *repro.Model {
			return repro.NewGraphSAGE(spec.FeatDim, 8, spec.Classes, 2)
		},
		Sampling:  repro.SamplingConfig{Fanouts: []int{4, 4}},
		BatchSize: 64,
		Platform:  repro.WithDevices(repro.SingleMachine8GPU(), 1, 2),
		Pipeline:  true,
		Seed:      5,
	}
	path := filepath.Join(t.TempDir(), "train.json")
	spy := &spyObserver{}
	apt, err := repro.NewAPT(task, repro.WithTracePath(path), repro.WithObserver(spy))
	if err != nil {
		t.Fatal(err)
	}
	res, err := apt.Train(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 {
		t.Fatalf("trained %d epochs, want 2", len(res.Epochs))
	}
	if spy.spans == 0 {
		t.Error("observer saw no spans")
	}
	if !strings.Contains(spy.metrics, "apt_engine_epochs_total 2") {
		t.Error("observer metrics missing the epoch counter")
	}
	if exp := apt.Metrics().Exposition(); !strings.Contains(exp, "apt_engine_pipelined_seconds") {
		t.Error("registry missing the pipelined gauge")
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace not well-formed: %v", err)
	}
	spans := 0
	for _, ev := range file.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Error("trace file has no span events")
	}
}

// TestFacadeTrainContext checks cancellation through the facade: a
// cancelled context ends training early with ctx.Err().
func TestFacadeTrainContext(t *testing.T) {
	spec := repro.DatasetPresets(0.03)[0]
	spec.Classes = 4
	ds := repro.BuildDataset(spec, false)
	task := repro.Task{
		Graph:   ds.Graph,
		FeatDim: spec.FeatDim,
		Seeds:   ds.TrainSeeds,
		NewModel: func() *repro.Model {
			return repro.NewGraphSAGE(spec.FeatDim, 8, spec.Classes, 2)
		},
		Sampling:  repro.SamplingConfig{Fanouts: []int{4, 4}},
		BatchSize: 64,
		Platform:  repro.WithDevices(repro.SingleMachine8GPU(), 1, 2),
		Seed:      5,
	}
	apt, err := repro.NewAPT(task)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := apt.TrainContext(ctx, 4)
	if err != context.Canceled {
		t.Fatalf("TrainContext err = %v, want context.Canceled", err)
	}
	if len(res.Epochs) != 0 {
		t.Errorf("cancelled run still reported %d epochs", len(res.Epochs))
	}
}
