package engine

import (
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// TestTimelineRecording checks the per-step table, a view over the
// epoch's spans: one row per step, and the rows add up to the epoch.
func TestTimelineRecording(t *testing.T) {
	f := newFixture(t, 3, 300)
	newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 8, f.classes, 2) }
	plan := sample.SplitEven(f.seeds, 3, graph.NewRNG(2))
	cfg := f.config(strategy.SNP, newModel, plan, []int{4, 4})
	col := obs.NewCollector()
	cfg.Spans = col
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := e.RunEpoch()
	rows := trace.StepRowsFromSpans(col.Tracks(), device.StageNames(), 0)
	if len(rows) != st.NumBatches {
		t.Fatalf("timeline has %d steps, want %d", len(rows), st.NumBatches)
	}
	var total float64
	for _, row := range rows {
		if len(row.Segments) != len(device.Stages) {
			t.Errorf("step %s has %d stage segments, want %d", row.Label, len(row.Segments), len(device.Stages))
		}
		total += row.Total()
	}
	// Per-step maxima sum to at least the epoch total (max-of-sums <=
	// sum-of-maxes) and not absurdly more.
	if total < st.EpochTime() {
		t.Errorf("timeline total %v < epoch time %v", total, st.EpochTime())
	}
	if total > 3*st.EpochTime() {
		t.Errorf("timeline total %v suspiciously exceeds epoch time %v", total, st.EpochTime())
	}
	out := trace.RenderStepTable("steps", col, device.StageNames(), 0)
	for _, name := range append([]string{"step", "total"}, device.StageNames()...) {
		if !strings.Contains(out, name) {
			t.Errorf("step table lacks the %q column:\n%s", name, out)
		}
	}

	// A second epoch extends the trace; from selects it alone.
	second := col.MaxEnd()
	st2 := e.RunEpoch()
	if rows := trace.StepRowsFromSpans(col.Tracks(), device.StageNames(), second); len(rows) != st2.NumBatches {
		t.Errorf("second epoch's table has %d steps, want %d", len(rows), st2.NumBatches)
	} else {
		var total2 float64
		for _, row := range rows {
			total2 += row.Total()
		}
		if total2 < st2.EpochTime() || total2 > 3*st2.EpochTime() {
			t.Errorf("second epoch's table totals %v against epoch time %v", total2, st2.EpochTime())
		}
	}
}
