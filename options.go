package repro

// Functional options of the facade. One Option type configures every
// entry point — NewAPT, ResumeFile, and Serve each apply the parts that
// concern them and ignore the rest, so a single option list can
// describe a whole deployment:
//
//	opts := []repro.Option{
//		repro.WithTracePath("run.json"),
//		repro.WithCheckpointDir("/var/lib/apt"),
//	}
//	apt, _ := repro.NewAPT(task, opts...)
//
// Observability options attach observers that flush when the run
// ends; the checkpoint option makes training keep one rolling snapshot;
// serving options configure the model hot-swap path.

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Option configures a facade entry point. The zero Option is a no-op.
type Option struct {
	apt   func(*core.APT)
	obs   []obs.Option
	serve func(*serve.Config)
}

// WithObserver delivers the run's spans and metrics to an Observer at
// flush time (training finishes, server closes).
func WithObserver(o Observer) Option {
	return Option{obs: []obs.Option{obs.WithObserver(o)}}
}

// WithTracePath writes a Chrome trace-event JSON file at flush time;
// load it in chrome://tracing or Perfetto.
func WithTracePath(path string) Option {
	return Option{obs: []obs.Option{obs.WithTracePath(path)}}
}

// WithCheckpointDir makes Train keep one rolling training snapshot,
// dir/SnapshotName, atomically replaced at every epoch boundary, for
// crash recovery via ResumeFile; Train creates dir before the first
// epoch. Applies to NewAPT and ResumeFile.
func WithCheckpointDir(dir string) Option {
	return Option{apt: func(a *core.APT) { a.CheckpointDir = dir }}
}

// WithReload names the training snapshot file
// Server.ReloadCheckpoint hot-swaps the model from. Applies to Serve;
// the config's NewModel factory must also be set.
func WithReload(path string) Option {
	return Option{serve: func(c *serve.Config) { c.ReloadPath = path }}
}

// obsOf collects the observability parts of an option list.
func obsOf(opts []Option) []obs.Option {
	var out []obs.Option
	for _, o := range opts {
		out = append(out, o.obs...)
	}
	return out
}

// applyAPT applies the training-side parts of an option list.
func applyAPT(a *core.APT, opts []Option) {
	for _, o := range opts {
		if o.apt != nil {
			o.apt(a)
		}
	}
}
