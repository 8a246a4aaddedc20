package repro

// Observability surface of the facade (package internal/obs): one
// subsystem shared by training and serving. Spans record what each
// simulated device did and when; the metrics registry holds counters,
// gauges, and histograms with a Prometheus-style text exposition.
//
// Attach observers with functional options at construction time
// (options.go); WithTracePath writes the span tracks as a Chrome trace
// for chrome://tracing:
//
//	apt, _ := repro.NewAPT(task, repro.WithTracePath("train.json"))
//	srv, _ := repro.Serve(cfg, repro.WithObserver(myObserver))

import "repro/internal/obs"

type (
	// Observer receives the collected span tracks and the metrics
	// registry when a run flushes (training finishes, server closes).
	Observer = obs.Observer
	// Span is one timed operation on a simulated device's track.
	Span = obs.Span
	// SpanTrack is one device's (or sampler's, or comm link's)
	// time-ordered span sequence.
	SpanTrack = obs.Track
	// MetricsRegistry is the named counter/gauge/histogram registry.
	MetricsRegistry = obs.Registry
)
