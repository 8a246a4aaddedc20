package serve

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// TestMetricsExposition drives a few requests and checks the /metrics
// registry exposes the serving counters in the text format, agreeing
// with the JSON snapshot. Nine requests ask for distinct nodes; the
// tenth asks for the first again, after its answer, so the model
// generation's answer table serves exactly one seed.
func TestMetricsExposition(t *testing.T) {
	f := newFixture(t)
	s := f.server(t, nil)
	defer s.Close()

	for i := 0; i < 10; i++ {
		if _, err := s.Predict([]graph.NodeID{graph.NodeID(i % 9 * 7)}); err != nil {
			t.Fatal(err)
		}
	}
	exp := s.Metrics().Exposition()
	for _, want := range []string{
		"# TYPE apt_serve_requests_total counter",
		"apt_serve_requests_total 10",
		"# TYPE apt_serve_latency_us histogram",
		"apt_serve_latency_us_count 10",
		"# TYPE apt_serve_batch_seeds histogram",
		"apt_serve_uptime_seconds",
		"apt_serve_sim_seconds",
		"# TYPE apt_serve_answer_hits_total counter",
		"apt_serve_answer_hits_total 1",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	snap := s.Stats()
	if snap.Requests != 10 {
		t.Errorf("snapshot requests = %d, want 10", snap.Requests)
	}
	if snap.Batches <= 0 || snap.Seeds <= 0 {
		t.Errorf("snapshot lost batches/seeds: %+v", snap)
	}
	if snap.AnswerHits != 1 || snap.Seeds != 10 {
		t.Errorf("snapshot answer hits / seeds = %d / %d, want 1 / 10", snap.AnswerHits, snap.Seeds)
	}
}

// TestPredictContext covers the context path: a live context behaves
// like Predict, a cancelled one fails fast, and cancelling mid-wait
// returns ctx.Err() without wedging the server.
func TestPredictContext(t *testing.T) {
	f := newFixture(t)
	s := f.server(t, nil)
	defer s.Close()

	if res, err := s.PredictContext(context.Background(), []graph.NodeID{1, 2}); err != nil || len(res) != 2 {
		t.Fatalf("PredictContext = %v, %v", res, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.PredictContext(ctx, []graph.NodeID{3}); err != context.Canceled {
		t.Fatalf("cancelled PredictContext err = %v", err)
	}
	// The server keeps answering after an abandoned wait.
	if _, err := s.Predict([]graph.NodeID{4}); err != nil {
		t.Fatal(err)
	}
}

// TestServeTraceOnClose serves with a trace path attached and checks
// Close writes a well-formed Chrome trace with per-worker inference
// spans, and that the observer callback sees the same tracks plus the
// metrics registry.
func TestServeTraceOnClose(t *testing.T) {
	f := newFixture(t)
	path := filepath.Join(t.TempDir(), "serve_trace.json")
	var sawTracks, sawMetrics bool
	obsv := observerFuncs{
		spans: func(tracks []*obs.Track) {
			for _, tr := range tracks {
				if tr.Proc == "infer" && tr.Len() > 0 {
					sawTracks = true
				}
			}
		},
		metrics: func(r *obs.Registry) {
			sawMetrics = r.Counter("apt_serve_requests_total", "").Value() > 0
		},
	}
	s := f.server(t, nil, obs.WithTracePath(path), obs.WithObserver(obsv))

	for i := 0; i < 8; i++ {
		if _, err := s.Predict([]graph.NodeID{graph.NodeID(i * 11 % 600)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if !sawTracks || !sawMetrics {
		t.Errorf("observer: sawTracks=%v sawMetrics=%v", sawTracks, sawMetrics)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
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
		t.Error("trace has no spans")
	}
}

// observerFuncs adapts two closures to obs.Observer.
type observerFuncs struct {
	spans   func([]*obs.Track)
	metrics func(*obs.Registry)
}

func (o observerFuncs) ObserveSpans(tracks []*obs.Track) { o.spans(tracks) }
func (o observerFuncs) ObserveMetrics(r *obs.Registry)   { o.metrics(r) }
