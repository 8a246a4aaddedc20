package obs

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// The metrics half of the observability layer: a named registry of
// counters, gauges, and histograms with a Prometheus-style text
// exposition format. It subsumes the serving stats registry and the
// engine's epoch volume accounting: aptserve exposes it on /metrics,
// aptrun and aptbench dump it on exit.
//
// Counters and gauges are atomic (no lock on the update path);
// histograms take a short mutex per Observe — they are fed per
// micro-batch or per epoch, never per kernel.

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by d (not atomic with concurrent Set; the
// engine only updates gauges from the collection goroutine).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.Set(g.Value() + d)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram buckets non-negative int64 observations (unit chosen by
// the caller: microseconds for latencies, seeds for batch sizes).
// Two bucketings exist: log-scale — sub sub-buckets per power-of-two
// octave, the serving latency scheme (~19% worst-case relative error
// on reported quantiles at sub=4) — and linear, one bucket per value
// up to a cap.
type Histogram struct {
	mu      sync.Mutex
	log     bool
	sub     int // log: sub-buckets per octave
	buckets []int64
	count   int64
	sum     int64
	max     int64
}

// latOctaves spans 1 .. ~2^26 units; latSub is the log-scale
// sub-bucket resolution per octave.
const (
	latOctaves = 27
	latSub     = 4
)

func newLogHistogram() *Histogram {
	return &Histogram{log: true, sub: latSub, buckets: make([]int64, latOctaves*latSub)}
}

func newLinearHistogram(max int) *Histogram {
	if max < 1 {
		max = 1
	}
	return &Histogram{buckets: make([]int64, max+1)}
}

// bucketOf maps a value to its bucket index.
func (h *Histogram) bucketOf(v int64) int {
	if v < 1 {
		return 0
	}
	if !h.log {
		if v >= int64(len(h.buckets)) {
			return len(h.buckets) - 1
		}
		return int(v)
	}
	// Octave = position of the highest set bit, split into h.sub
	// linear sub-buckets.
	oct := 0
	for x := v; x > 1; x >>= 1 {
		oct++
	}
	lo := int64(1) << oct
	b := oct*h.sub + int((v-lo)*int64(h.sub)/lo)
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	return b
}

// bucketUpper returns the inclusive upper bound of bucket b.
func (h *Histogram) bucketUpper(b int) int64 {
	if !h.log {
		return int64(b)
	}
	oct := b / h.sub
	sub := b % h.sub
	lo := int64(1) << oct
	return lo + (lo*int64(sub+1))/int64(h.sub)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.buckets[h.bucketOf(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Max returns the largest observation.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Mean returns the average observation.
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the approximate q-quantile (0 < q <= 1) by the
// nearest-rank rule — the ⌈q·n⌉-th smallest observation — reported as
// its bucket's upper bound clamped to the true maximum so the log-scale
// overshoot never exceeds an observed value.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q*float64(h.count))) - 1 // 0-based
	if rank < 0 {
		rank = 0
	}
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen int64
	for b, c := range h.buckets {
		seen += c
		if seen > rank {
			if u := h.bucketUpper(b); u < h.max {
				return u
			}
			return h.max
		}
	}
	return h.max
}

// NonEmptyBuckets calls fn for each bucket holding at least one
// observation, with the bucket's upper bound and its count.
func (h *Histogram) NonEmptyBuckets(fn func(upper, count int64)) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for b, c := range h.buckets {
		if c > 0 {
			fn(h.bucketUpper(b), c)
		}
	}
}

// metric is one registered entry.
type metric struct {
	name string
	help string
	kind string // "counter" | "gauge" | "histogram"
	c    *Counter
	g    *Gauge
	gf   func() float64
	h    *Histogram
}

// Registry is an ordered, named metrics registry. Get-or-create
// lookups are cheap but not hot-path-free: callers hold the returned
// metric handle and update it directly.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	index   map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]*metric{}}
}

// lookup returns the entry for name, creating it with mk if absent.
// It panics if the name is already registered with a different kind —
// that is always a programming error worth failing loudly on.
func (r *Registry) lookup(name, help, kind string, mk func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.index[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, m.kind, kind))
		}
		return m
	}
	m := mk()
	m.name, m.help, m.kind = name, help, kind
	r.metrics = append(r.metrics, m)
	r.index[name] = m
	return m
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, "counter", func() *metric { return &metric{c: &Counter{}} }).c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, "gauge", func() *metric { return &metric{g: &Gauge{}} }).g
}

// GaugeFunc registers a gauge whose value is computed by fn at
// exposition time (e.g. accumulated simulated seconds).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.lookup(name, help, "gauge", func() *metric { return &metric{gf: fn} })
}

// LogHistogram returns the named log-scale histogram, creating it if
// needed.
func (r *Registry) LogHistogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, "histogram", func() *metric { return &metric{h: newLogHistogram()} }).h
}

// LinearHistogram returns the named linear histogram with buckets
// 0..max, creating it if needed.
func (r *Registry) LinearHistogram(name, help string, max int) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, "histogram", func() *metric { return &metric{h: newLinearHistogram(max)} }).h
}

// WriteExposition writes every metric in registration order in the
// text exposition format:
//
//	# HELP apt_serve_requests_total Completed requests.
//	# TYPE apt_serve_requests_total counter
//	apt_serve_requests_total 123
//
// Histograms expose cumulative le-labeled buckets plus _sum, _count,
// and _max series.
func (r *Registry) WriteExposition(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	var b strings.Builder
	for _, m := range metrics {
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		switch {
		case m.c != nil:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.c.Value())
		case m.g != nil:
			fmt.Fprintf(&b, "%s %s\n", m.name, formatFloat(m.g.Value()))
		case m.gf != nil:
			fmt.Fprintf(&b, "%s %s\n", m.name, formatFloat(m.gf()))
		case m.h != nil:
			var cum int64
			m.h.NonEmptyBuckets(func(upper, count int64) {
				cum += count
				fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", m.name, upper, cum)
			})
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, m.h.Count())
			fmt.Fprintf(&b, "%s_sum %d\n", m.name, m.h.Sum())
			fmt.Fprintf(&b, "%s_count %d\n", m.name, m.h.Count())
			fmt.Fprintf(&b, "%s_max %d\n", m.name, m.h.Max())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Exposition renders WriteExposition to a string.
func (r *Registry) Exposition() string {
	var b strings.Builder
	r.WriteExposition(&b)
	return b.String()
}

// Names returns the registered metric names in registration order
// (tests use it to assert coverage).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, len(r.metrics))
	for i, m := range r.metrics {
		names[i] = m.name
	}
	return names
}

// formatFloat renders gauges compactly: integral values without a
// fractional part, everything else with enough digits to round-trip.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
