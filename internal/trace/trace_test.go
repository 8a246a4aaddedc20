package trace

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestRenderBars(t *testing.T) {
	rows := []Row{
		{Label: "GDP", Marked: true, Segments: []Seg{{"sampling", 1}, {"loading", 2}, {"training", 1}}},
		{Label: "SNP", Segments: []Seg{{"sampling", 2}, {"loading", 0.5}, {"training", 1.5}}, Note: "[OOM]"},
	}
	out := RenderBars("title", rows)
	if !strings.Contains(out, "title") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "* GDP") {
		t.Error("missing star on marked row")
	}
	if !strings.Contains(out, "[OOM]") {
		t.Error("missing note")
	}
	if !strings.Contains(out, "legend:") {
		t.Error("missing legend")
	}
	if !strings.Contains(out, "4.0000s") {
		t.Error("missing total")
	}
	// The largest row should reach close to full width.
	if !strings.Contains(out, "#") || !strings.Contains(out, "=") {
		t.Error("missing bar glyphs")
	}
}

func TestRenderBarsEmpty(t *testing.T) {
	if out := RenderBars("t", nil); !strings.Contains(out, "t") {
		t.Error("empty rows should still render title")
	}
}

func TestRowTotal(t *testing.T) {
	r := Row{Segments: []Seg{{"a", 1.5}, {"b", 2.5}}}
	if r.Total() != 4 {
		t.Errorf("Total = %v", r.Total())
	}
}

func TestRenderTable(t *testing.T) {
	out := RenderTable("tbl", []string{"col1", "verylongheader"}, [][]string{
		{"a", "b"},
		{"ccccssss", "d"},
	})
	if !strings.Contains(out, "tbl") || !strings.Contains(out, "verylongheader") {
		t.Error("missing title or headers")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Errorf("got %d lines, want 5:\n%s", len(lines), out)
	}
	// Alignment: all data lines should have the same column start.
	if !strings.Contains(out, "ccccssss") {
		t.Error("missing cell")
	}
}

func TestRenderTableNoTitle(t *testing.T) {
	out := RenderTable("", []string{"x"}, [][]string{{"1"}})
	if strings.HasPrefix(out, "\n") {
		t.Error("leading newline with empty title")
	}
}

func TestRowsFromSpans(t *testing.T) {
	c := obs.NewCollector()
	dev := c.AddTrack("device", "dev0")
	dev.Emit("sample", 0, 0, 1.0, 0)
	dev.Emit("train", 0, 1.0, 2.0, 0)
	dev.Emit("sample", 1, 3.0, 0.5, 0)
	empty := c.AddTrack("device", "dev1")
	_ = empty

	rows := RowsFromSpans(c.Tracks(), []string{"sample", "train"})
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1 (empty track dropped)", len(rows))
	}
	r := rows[0]
	if r.Label != "dev0" || len(r.Segments) != 2 {
		t.Fatalf("row = %+v", r)
	}
	if r.Segments[0].Name != "sample" || r.Segments[0].Sec != 1.5 {
		t.Errorf("sample segment = %+v", r.Segments[0])
	}
	if r.Segments[1].Name != "train" || r.Segments[1].Sec != 2.0 {
		t.Errorf("train segment = %+v", r.Segments[1])
	}
	out := RenderSpanBars("spans", c, nil)
	if !strings.Contains(out, "dev0") || !strings.Contains(out, "legend") {
		t.Errorf("bad render:\n%s", out)
	}
}

func TestStepRowsFromSpans(t *testing.T) {
	c := obs.NewCollector()
	dev0 := c.AddTrack("device", "dev0")
	dev0.Emit("sample", 0, 0, 9.0, 0) // an earlier epoch, before from
	dev0.Emit("sample", 0, 10, 1.0, 0)
	dev0.Emit("train", 0, 11, 2.0, 0)
	dev0.Emit("train", 1, 13, 1.0, 0)
	dev1 := c.AddTrack("device", "dev1")
	dev1.Emit("train", 0, 10, 2.5, 0) // the slower device sets the step's time
	smp := c.AddTrack("sampler", "dev1/sampler")
	smp.Emit("sample", 1, 10, 0.25, 0)
	comm := c.AddTrack("comm", "dev0/comm")
	comm.Emit("allreduce", 0, 10, 7.0, 64) // not a listed stage
	comm.Emit("train", -1, 10, 7.0, 0)     // not step-scoped

	rows := StepRowsFromSpans(c.Tracks(), []string{"sample", "train"}, 10)
	want := [][2]float64{{1.0, 2.5}, {0.25, 1.0}}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(rows), len(want), rows)
	}
	for i, r := range rows {
		if r.Label != fmt.Sprint(i) || len(r.Segments) != 2 ||
			r.Segments[0].Sec != want[i][0] || r.Segments[1].Sec != want[i][1] {
			t.Errorf("step %d row = %+v, want sample %v train %v", i, r, want[i][0], want[i][1])
		}
	}
	out := RenderStepTable("steps", c, []string{"sample", "train"}, 10)
	if !strings.Contains(out, "3.50000") { // step 0 total
		t.Errorf("step table lacks step 0's total:\n%s", out)
	}
}
