package repro

// Functional options of the facade. One Option type configures every
// entry point — NewAPT, Resume, and Serve each apply the parts that
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
// ends; checkpoint options make training write rolling snapshots;
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

// WithCheckpointDir makes Train write a rolling training snapshot
// (dir/snapshot.aptc, atomically replaced) at epoch boundaries, for
// crash recovery via Resume. Applies to NewAPT and Resume.
func WithCheckpointDir(dir string) Option {
	return Option{apt: func(a *core.APT) { a.CheckpointDir = dir }}
}

// WithCheckpointEvery sets the snapshot cadence in epochs (default 1:
// every epoch boundary). Applies to NewAPT and Resume.
func WithCheckpointEvery(epochs int) Option {
	return Option{apt: func(a *core.APT) { a.CheckpointEvery = epochs }}
}

// WithCheckpointRetain keeps the newest k snapshots instead of one
// rolling file: each boundary writes an epoch-stamped snapshot
// (snapshot-ep%08d.aptc) and prunes the rest. Find the resume point
// with LatestSnapshot. Applies to NewAPT and Resume.
func WithCheckpointRetain(k int) Option {
	return Option{apt: func(a *core.APT) { a.CheckpointRetain = k }}
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
