// Package trace renders the benchmark harness's outputs: stacked-bar
// epoch-time breakdowns (text form of the paper's Figures 1 and 8-11)
// and aligned tables.
package trace

import (
	"fmt"
	"strings"
)

// Seg is one stacked-bar segment.
type Seg struct {
	Name string
	Sec  float64
}

// Row is one bar: a labeled strategy run, optionally marked as APT's
// selection (the paper's red star).
type Row struct {
	Label    string
	Segments []Seg
	Marked   bool
	Note     string
}

// StageRow is the paper's stacked epoch bar for one strategy run:
// sampling (incl. subgraph shuffle), feature loading, training (incl.
// hidden shuffle) — engine.EpochStats' SamplingBar, LoadSec and
// TrainBar, passed as floats so this package need not import engine.
func StageRow(label string, sampling, loading, training float64, marked bool, note string) Row {
	return Row{
		Label:  label,
		Marked: marked,
		Note:   note,
		Segments: []Seg{
			{Name: "sampling", Sec: sampling},
			{Name: "loading", Sec: loading},
			{Name: "training", Sec: training},
		},
	}
}

// Total sums the row's segments.
func (r Row) Total() float64 {
	var t float64
	for _, s := range r.Segments {
		t += s.Sec
	}
	return t
}

// RenderBars draws rows as horizontal text bars scaled to the widest
// total, one character class per segment.
func RenderBars(title string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	var maxTotal float64
	for _, r := range rows {
		if t := r.Total(); t > maxTotal {
			maxTotal = t
		}
	}
	if maxTotal == 0 {
		maxTotal = 1
	}
	const width = 48
	glyphs := []byte{'#', '=', '-', '~', '.'}
	for _, r := range rows {
		star := " "
		if r.Marked {
			star = "*"
		}
		bar := make([]byte, 0, width)
		for i, s := range r.Segments {
			n := int(s.Sec / maxTotal * width)
			g := glyphs[i%len(glyphs)]
			for j := 0; j < n; j++ {
				bar = append(bar, g)
			}
		}
		fmt.Fprintf(&b, "  %s %-10s %-*s %8.4fs", star, r.Label, width, string(bar), r.Total())
		if r.Note != "" {
			fmt.Fprintf(&b, "  %s", r.Note)
		}
		b.WriteByte('\n')
	}
	if len(rows) > 0 && len(rows[0].Segments) > 0 {
		b.WriteString("    legend:")
		for i, s := range rows[0].Segments {
			fmt.Fprintf(&b, " %c=%s", glyphs[i%len(glyphs)], s.Name)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderTable renders an aligned text table.
func RenderTable(title string, headers []string, rows [][]string) string {
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		b.WriteString("  ")
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
