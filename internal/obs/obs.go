// Package obs is the unified observability layer shared by training
// and serving: per-step spans on named tracks (the paper's Figures 1
// and 8-11 are stage-by-stage breakdowns, and APT's cost models are
// only trustworthy if an operator can see the same per-step,
// per-device record), a counter/gauge/histogram metrics registry with
// a text exposition format, and exporters — Chrome trace-event JSON
// (chrome://tracing-loadable) plus the text renderers in
// internal/trace.
//
// The design goal is zero cost when disabled: every emission point
// holds a *Track (or *Collector) that is nil when observability is
// off, and Emit on a nil receiver is a no-op, so the engine's hot
// kernels stay allocation-free. When enabled, each track is owned by
// one device goroutine — appends never take a lock — and the tracks
// are merged only at flush time.
package obs

import "sort"

// Span is one timed interval on a track: a stage of one mini-batch
// step on a simulated device, a collective on a comm link, or one
// serving micro-batch phase. Times are simulated seconds relative to
// the collector's time base (the start of the run).
type Span struct {
	// Stage names the interval (sample/build/load/train/shuffle for
	// engine steps, the operator name for collectives).
	Stage string
	// Step is the mini-batch step (or serving batch ordinal) the span
	// belongs to; -1 when not step-scoped.
	Step int
	// Start and Dur position the span on the simulated clock, seconds.
	Start, Dur float64
	// Bytes is the payload volume moved during the span (collectives
	// and feature loads; 0 otherwise).
	Bytes int64
}

// End returns Start + Dur.
func (s Span) End() float64 { return s.Start + s.Dur }

// Track is one horizontal lane of the timeline: a simulated device's
// compute stream, its sampler stream, or a comm link. A track must be
// fed by a single goroutine at a time; distinct tracks may be fed
// concurrently (that is the whole point).
type Track struct {
	// Name labels the lane ("dev0", "dev0/sampler", "dev0/comm", ...).
	Name string
	// Proc groups tracks into Chrome trace processes ("device",
	// "sampler", "comm", "serve").
	Proc  string
	spans []Span
}

// Emit appends a span to the track. A nil receiver or a non-positive
// duration is a no-op, so call sites need no enabled-check and
// zero-length stages never break the strict per-track time ordering.
func (t *Track) Emit(stage string, step int, start, dur float64, bytes int64) {
	if t == nil || dur <= 0 {
		return
	}
	t.spans = append(t.spans, Span{Stage: stage, Step: step, Start: start, Dur: dur, Bytes: bytes})
}

// Len returns the number of spans collected so far.
func (t *Track) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Spans returns the track's spans, sorted by start time. The returned
// slice aliases the track's buffer once sorted; treat it as read-only.
func (t *Track) Spans() []Span {
	if t == nil {
		return nil
	}
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	return t.spans
}

// Collector owns the tracks of one run. AddTrack happens at setup
// time (single goroutine); afterwards each track is appended to by its
// owning goroutine without locks, and the collector is read only after
// the emitting goroutines have been joined (epoch end, server drain).
type Collector struct {
	tracks []*Track
}

// NewCollector creates an empty collector.
func NewCollector() *Collector { return &Collector{} }

// AddTrack registers a new track under the given process group and
// returns its handle. Not safe for concurrent use; call during setup.
func (c *Collector) AddTrack(proc, name string) *Track {
	if c == nil {
		return nil
	}
	t := &Track{Name: name, Proc: proc}
	c.tracks = append(c.tracks, t)
	return t
}

// Tracks returns the collector's tracks in registration order.
func (c *Collector) Tracks() []*Track {
	if c == nil {
		return nil
	}
	return c.tracks
}

// NumSpans totals the spans across all tracks.
func (c *Collector) NumSpans() int {
	n := 0
	for _, t := range c.Tracks() {
		n += t.Len()
	}
	return n
}

// MaxEnd returns the latest span end across all tracks — the length of
// the recorded timeline.
func (c *Collector) MaxEnd() float64 {
	var mx float64
	for _, t := range c.Tracks() {
		for _, s := range t.spans {
			if e := s.End(); e > mx {
				mx = e
			}
		}
	}
	return mx
}
