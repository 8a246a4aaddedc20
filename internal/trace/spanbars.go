package trace

import (
	"fmt"

	"repro/internal/obs"
)

// Text views over span data. The same stacked bars the benchmark
// reports use, but computed from an observability span collector
// instead of EpochStats — one bar per track, one segment per stage,
// segment length = the stage's total span time on that track — and a
// per-step table of stage times. The Chrome trace answers "when did it
// run"; the bars answer "how much, per device" and the table "how much,
// per step" in plain text.

// RowsFromSpans folds span tracks into stacked-bar rows. stageOrder
// fixes the segment order (and therefore the legend); stages not
// listed append in first-appearance order, so nil renders everything.
func RowsFromSpans(tracks []*obs.Track, stageOrder []string) []Row {
	rows := make([]Row, 0, len(tracks))
	for _, tr := range tracks {
		totals := map[string]float64{}
		order := append([]string(nil), stageOrder...)
		for _, s := range tr.Spans() {
			if _, seen := totals[s.Stage]; !seen && stageIndex(order, s.Stage) < 0 {
				order = append(order, s.Stage)
			}
			totals[s.Stage] += s.Dur
		}
		row := Row{Label: tr.Name}
		for _, stage := range order {
			if sec, ok := totals[stage]; ok {
				row.Segments = append(row.Segments, Seg{Name: stage, Sec: sec})
			}
		}
		if len(row.Segments) > 0 {
			rows = append(rows, row)
		}
	}
	return rows
}

func stageIndex(order []string, stage string) int {
	for i, s := range order {
		if s == stage {
			return i
		}
	}
	return -1
}

// RenderSpanBars is RowsFromSpans piped into RenderBars: the text-bar
// view of a collector, stage order matching the engine's stages.
func RenderSpanBars(title string, c *obs.Collector, stageOrder []string) string {
	return RenderBars(title, RowsFromSpans(c.Tracks(), stageOrder))
}

// StepRowsFromSpans folds span tracks into one row per mini-batch
// step: a segment per stage in stages, holding the longest span of that
// stage and step on any track — synchronous steps wait for the slowest
// device, so this is what the step cost the epoch. Spans of other
// stages (collectives ride their tracks under operator names), spans
// that are not step-scoped, and spans that start before from (the
// earlier epochs of a multi-epoch trace) are left out.
func StepRowsFromSpans(tracks []*obs.Track, stages []string, from float64) []Row {
	var rows []Row
	for _, tr := range tracks {
		for _, s := range tr.Spans() {
			i := stageIndex(stages, s.Stage)
			if i < 0 || s.Step < 0 || s.Start < from {
				continue
			}
			for len(rows) <= s.Step {
				row := Row{Label: fmt.Sprint(len(rows)), Segments: make([]Seg, len(stages))}
				for j, stage := range stages {
					row.Segments[j].Name = stage
				}
				rows = append(rows, row)
			}
			if seg := &rows[s.Step].Segments[i]; s.Dur > seg.Sec {
				seg.Sec = s.Dur
			}
		}
	}
	return rows
}

// RenderStepTable is StepRowsFromSpans piped into RenderTable: one line
// per step, one column per stage plus the step total, in seconds.
func RenderStepTable(title string, c *obs.Collector, stages []string, from float64) string {
	headers := append(append([]string{"step"}, stages...), "total")
	var lines [][]string
	for _, r := range StepRowsFromSpans(c.Tracks(), stages, from) {
		line := []string{r.Label}
		for _, s := range r.Segments {
			line = append(line, fmt.Sprintf("%.5f", s.Sec))
		}
		lines = append(lines, append(line, fmt.Sprintf("%.5f", r.Total())))
	}
	return RenderTable(title, headers, lines)
}
