package repro

// Serving surface of the facade: online inference over a trained
// model with adaptive micro-batching (package internal/serve), plus
// blue/green model hot-swap — Server.Reload installs a new model
// without dropping a single in-flight request, and
// Server.ReloadCheckpoint does the same from the checkpoint file
// named by WithReload.

import "repro/internal/serve"

type (
	// Server is the online inference server; issue requests with
	// Server.Predict / Server.PredictContext and stop with
	// Server.Close.
	Server = serve.Server
	// ServeConfig configures Serve.
	ServeConfig = serve.Config
	// PredictResult is one node's prediction.
	PredictResult = serve.Result
	// ServeStats is a snapshot of a Server's metrics registry
	// (latency percentiles, throughput, batch sizes, cache hit rate).
	ServeStats = serve.Snapshot
)

// ErrServerClosed is returned by Server.Predict after Server.Close.
var ErrServerClosed = serve.ErrServerClosed

// ErrOverloaded is returned by Server.Predict when the request queue is
// full; the request is refused at once rather than blocking.
var ErrOverloaded = serve.ErrOverloaded

// Serve starts an online inference server over a trained model.
// Options attach observers (WithObserver, WithTracePath) that flush
// when the server closes and configure hot-swap (WithReload).
func Serve(cfg ServeConfig, opts ...Option) (*Server, error) {
	for _, o := range opts {
		if o.serve != nil {
			o.serve(&cfg)
		}
	}
	return serve.New(cfg, obsOf(opts)...)
}
