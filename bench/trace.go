package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program under test.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0 = no parent
	Workload string  `json:"workload"`
	Layer    string  `json:"layer"`
	Name     string  `json:"name"`
	StartUs  float64 `json:"start_us"`
	DurUs    float64 `json:"dur_us"`
	// SelfUs is DurUs minus the time the span's children cover; filled
	// in when the trace is written.
	SelfUs float64 `json:"self_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the tracing-off state: begin returns 0 and end does nothing, so the
// untraced run executes the same code path without the bookkeeping.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: now()}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	start := since(t.t0) * 1e6
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Workload: t.workload,
		Layer: layer, Name: name, StartUs: start, DurUs: -1,
	})
	return len(t.spans)
}

// end closes the span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	end := since(t.t0) * 1e6
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.DurUs = end - s.StartUs
	return s.DurUs / 1e6
}

// dur is a closed span's duration in seconds.
func (t *tracer) dur(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].DurUs / 1e6
}

// childSum adds up the durations of parent's direct children, in
// seconds, and also returns them grouped by "layer.name".
func (t *tracer) childSum(parent int) (float64, map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	by := map[string]float64{}
	var sum float64
	for _, s := range t.spans {
		if s.Parent == parent && s.DurUs >= 0 {
			sum += s.DurUs / 1e6
			by[s.Layer+"."+s.Name] += s.DurUs / 1e6
		}
	}
	return sum, by
}

// checkParts is the parts-sum check: the children of parent must cover
// its duration within tol (a share of the parent), else the spans do
// not explain the time they claim to.
func (t *tracer) checkParts(parent int, what string, tol float64) error {
	whole := t.dur(parent)
	parts, _ := t.childSum(parent)
	if whole <= 0 {
		return fmt.Errorf("parts-sum %s: span %d has no duration", what, parent)
	}
	if gap := math.Abs(whole-parts) / whole; gap > tol {
		return fmt.Errorf("parts-sum %s: children cover %.6fs of %.6fs (gap %.1f%% > %.0f%%)",
			what, parts, whole, 100*gap, 100*tol)
	}
	return nil
}

// write stores the spans, with self times, as JSON. A span's self time
// is its duration minus the part of it that its children cover:
// children that overlap (a serving phase's concurrent requests) cover
// their shared interval once.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent > 0 && s.DurUs >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range t.spans {
		p := &t.spans[i]
		p.SelfUs = p.DurUs
		ks := kids[p.ID]
		slices.SortFunc(ks, func(a, b int) int { return cmp.Compare(t.spans[a].StartUs, t.spans[b].StartUs) })
		coveredTo := p.StartUs
		for _, k := range ks {
			start := max(t.spans[k].StartUs, coveredTo)
			end := min(t.spans[k].StartUs+t.spans[k].DurUs, p.StartUs+p.DurUs)
			if end > start {
				p.SelfUs -= end - start
				coveredTo = end
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{t.workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
