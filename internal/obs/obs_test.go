package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentTrackEmission drives one goroutine per track — the
// engine's device-goroutine shape — and checks every span lands on its
// own track. Run under -race (make verify does) this doubles as the
// collector's data-race test.
func TestConcurrentTrackEmission(t *testing.T) {
	c := NewCollector()
	const (
		nTracks = 8
		nSpans  = 500
	)
	tracks := make([]*Track, nTracks)
	for i := range tracks {
		tracks[i] = c.AddTrack("device", "dev")
	}
	reg := NewRegistry()
	steps := reg.Counter("steps_total", "")
	var wg sync.WaitGroup
	for i, tr := range tracks {
		wg.Add(1)
		go func(i int, tr *Track) {
			defer wg.Done()
			start := 0.0
			for s := 0; s < nSpans; s++ {
				dur := 0.001 * float64(i+1)
				tr.Emit("train", s, start, dur, int64(s))
				start += dur
				steps.Inc()
			}
		}(i, tr)
	}
	wg.Wait()
	if got := c.NumSpans(); got != nTracks*nSpans {
		t.Fatalf("collected %d spans, want %d", got, nTracks*nSpans)
	}
	if got := steps.Value(); got != nTracks*nSpans {
		t.Fatalf("counter = %d, want %d", got, nTracks*nSpans)
	}
	for i, tr := range tracks {
		spans := tr.Spans()
		for s := 1; s < len(spans); s++ {
			if spans[s].Start <= spans[s-1].Start {
				t.Fatalf("track %d: span %d start %v <= previous %v",
					i, s, spans[s].Start, spans[s-1].Start)
			}
		}
	}
}

// TestNilSafety: every emission-point type must be a no-op on nil, so
// disabled observability needs no call-site guards.
func TestNilSafety(t *testing.T) {
	var tr *Track
	tr.Emit("train", 0, 0, 1, 0)
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil track collected spans")
	}
	var c *Collector
	if c.AddTrack("p", "t") != nil || c.Tracks() != nil {
		t.Fatal("nil collector returned a track")
	}
	var cnt *Counter
	cnt.Inc()
	var g *Gauge
	g.Set(1)
	var h *Histogram
	h.Observe(1)
	var r *Registry
	if r.Counter("x", "") != nil || r.Exposition() != "" {
		t.Fatal("nil registry created metrics")
	}
	r.GaugeFunc("y", "", func() float64 { return 1 })
}

// TestZeroDurationSkipped: zero- and negative-duration spans must not
// be recorded, preserving strict per-track time ordering.
func TestZeroDurationSkipped(t *testing.T) {
	c := NewCollector()
	tr := c.AddTrack("device", "dev0")
	tr.Emit("build", 0, 0, 0, 0)
	tr.Emit("load", 0, 0, -1, 0)
	tr.Emit("train", 0, 0, 0.5, 0)
	if tr.Len() != 1 {
		t.Fatalf("len = %d, want 1", tr.Len())
	}
}

func TestCollectorResetAndMaxEnd(t *testing.T) {
	c := NewCollector()
	tr := c.AddTrack("device", "dev0")
	tr.Emit("train", 0, 1, 2, 0)
	if got := c.MaxEnd(); got != 3 {
		t.Fatalf("MaxEnd = %v, want 3", got)
	}
	c.Reset()
	if c.NumSpans() != 0 {
		t.Fatal("Reset left spans behind")
	}
	if len(c.Tracks()) != 1 {
		t.Fatal("Reset dropped the track layout")
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("apt_requests_total", "Completed requests.").Add(3)
	r.Gauge("apt_epoch_seconds", "Last epoch time.").Set(1.5)
	r.GaugeFunc("apt_sim_seconds", "", func() float64 { return 2 })
	h := r.LinearHistogram("apt_batch_seeds", "Seeds per batch.", 8)
	h.Observe(2)
	h.Observe(2)
	h.Observe(5)

	out := r.Exposition()
	for _, want := range []string{
		"# HELP apt_requests_total Completed requests.",
		"# TYPE apt_requests_total counter",
		"apt_requests_total 3",
		"# TYPE apt_epoch_seconds gauge",
		"apt_epoch_seconds 1.5",
		"apt_sim_seconds 2",
		"# TYPE apt_batch_seeds histogram",
		`apt_batch_seeds_bucket{le="2"} 2`,
		`apt_batch_seeds_bucket{le="5"} 3`,
		`apt_batch_seeds_bucket{le="+Inf"} 3`,
		"apt_batch_seeds_sum 9",
		"apt_batch_seeds_count 3",
		"apt_batch_seeds_max 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Get-or-create returns the same instance.
	if r.Counter("apt_requests_total", "").Value() != 3 {
		t.Fatal("re-lookup created a fresh counter")
	}
	// Kind mismatch must fail loudly.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("kind mismatch did not panic")
			}
		}()
		r.Gauge("apt_requests_total", "")
	}()
}

func TestLogHistogramQuantiles(t *testing.T) {
	h := newLogHistogram()
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 || h.Max() != 1000 {
		t.Fatalf("count=%d max=%d", h.Count(), h.Max())
	}
	p50 := h.Quantile(0.50)
	if p50 < 400 || p50 > 700 {
		t.Fatalf("p50 = %d, want ~500 within log-bucket error", p50)
	}
	if q := h.Quantile(0.999); q > h.Max() {
		t.Fatalf("quantile %d exceeds max %d", q, h.Max())
	}
	if h.Mean() < 400 || h.Mean() > 600 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

// TestHistogramQuantileNearestRank pins the rank rule on a linear
// histogram, where each bucket holds one value and the quantile is
// exact: the q-quantile of n observations is the ⌈q·n⌉-th smallest, so
// the p99 of 100 requests is not the worst one.
func TestHistogramQuantileNearestRank(t *testing.T) {
	h := newLinearHistogram(1000)
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("1..100: p%g = %d, want %d", 100*c.q, got, c.want)
		}
	}
	two := newLinearHistogram(10)
	two.Observe(1)
	two.Observe(2)
	if got := two.Quantile(0.5); got != 1 {
		t.Errorf("{1, 2}: p50 = %d, want 1", got)
	}
}

// TestChromeTraceExport checks the exporter produces loadable JSON
// with per-process/thread metadata and microsecond timestamps.
func TestChromeTraceExport(t *testing.T) {
	c := NewCollector()
	dev := c.AddTrack("device", "dev0")
	smp := c.AddTrack("sampler", "dev0/sampler")
	dev.Emit("train", 0, 0.001, 0.002, 0)
	smp.Emit("sample", 1, 0.0015, 0.001, 64)

	raw, err := ChromeTraceJSON(c)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	var metas, xs int
	for _, ev := range f.TraceEvents {
		switch ev["ph"] {
		case "M":
			metas++
		case "X":
			xs++
			if ev["ts"].(float64) <= 0 || ev["dur"].(float64) <= 0 {
				t.Fatalf("bad X event: %v", ev)
			}
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	// 2 process_name + 2 thread_name metadata events, 2 spans.
	if metas != 4 || xs != 2 {
		t.Fatalf("metas=%d xs=%d, want 4 and 2", metas, xs)
	}
}

// TestOptionsBuild checks the functional options fold correctly and
// Enabled gates on any sink.
func TestOptionsBuild(t *testing.T) {
	if BuildOptions().Enabled() {
		t.Fatal("empty options enabled")
	}
	o := BuildOptions(WithTracePath("/tmp/x.json"))
	if !o.Enabled() || o.TracePath != "/tmp/x.json" {
		t.Fatalf("options = %+v", o)
	}
	obsv := &recordingObserver{}
	o = BuildOptions(WithObserver(obsv))
	if !o.Enabled() || o.Observer == nil {
		t.Fatal("observer option not applied")
	}
	c := NewCollector()
	c.AddTrack("device", "dev0").Emit("train", 0, 0, 1, 0)
	r := NewRegistry()
	r.Counter("x", "").Inc()
	if err := o.Flush(c, r); err != nil {
		t.Fatal(err)
	}
	if obsv.spans != 1 || obsv.metrics == nil {
		t.Fatalf("observer got %d span tracks, metrics %v", obsv.spans, obsv.metrics)
	}
}

type recordingObserver struct {
	spans   int
	metrics *Registry
}

func (o *recordingObserver) ObserveSpans(tracks []*Track) { o.spans = len(tracks) }
func (o *recordingObserver) ObserveMetrics(r *Registry)   { o.metrics = r }
