// Package serve implements online inference serving over a trained
// GNN model: a Server answers "predict label/embedding for node(s) X"
// requests by coalescing concurrent requests into sampled mini-batches
// (load-aware micro-batching: a batch waits for more requests only while
// every other worker is busy, up to a max batch size and a max queue
// delay), executed by a pool of inference workers over the simulated
// devices. The paper's framing — strategy choice is a data-movement
// problem over sampled bipartite blocks — applies unchanged at serving
// time: the workers reuse the unified engine's real-mode block
// execution, the unified feature store, and the hotness caches, so
// hot-node requests skip feature loading entirely.
//
// With the weights fixed, layer 0's projection of a node's features
// depends on the node alone: each model generation projects every
// feature row once when it is built (engine.NewInferencer), and a batch
// runs only the aggregation over the rows it samples — the same bits
// as projecting per batch, at a fraction of the compute. New and Reload
// pay that projection before any request reaches the generation.
//
// The worker pool lives as long as the server: New starts one goroutine
// per worker and Close ends them. A model generation is only what the
// workers read: goroutine i runs each batch it has filled on the live
// generation's worker i, so Reload swaps one pointer and a request sent
// after Reload returns is answered by the new model.
//
// Every answer is deterministic under any sampling method the server
// accepts: an answer is one keyed draw, or for a hub, a node with more
// neighbours than the product of the fanouts, the mean of up to four.
// In each draw a node's neighbours at each layer come from a stream
// keyed by (Config.Seed, draw, layer, node), so the answer is a
// function of (model generation, node) — the same in any batch, on any
// worker. Each generation therefore keeps the answers it has
// computed, one row per node in a table it starts empty, and a batch
// computes only the seeds not yet in it. A Reload's new generation
// starts with an empty table.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/tensor"
)

// queueCap bounds the pending-request buffer; Predict fails with
// ErrOverloaded while the queue is full.
const queueCap = 1024

// ErrServerClosed is returned by Predict once Close has begun; queued
// and in-flight requests still complete (drain semantics).
var ErrServerClosed = errors.New("serve: server closed")

// ErrOverloaded is returned by Predict when the request queue is full:
// the server refuses the request at once instead of blocking its caller.
var ErrOverloaded = errors.New("serve: overloaded, request queue full")

// UnknownNodeError reports a requested node ID outside the graph.
type UnknownNodeError struct {
	Node     graph.NodeID
	NumNodes int
}

// Error implements error.
func (e *UnknownNodeError) Error() string {
	return fmt.Sprintf("serve: unknown node %d (graph has %d nodes)", e.Node, e.NumNodes)
}

// Config assembles an inference server.
type Config struct {
	// Graph is the data graph the model was trained on.
	Graph *graph.Graph
	// Feats are the node input features (required: serving is real
	// execution, never accounting).
	Feats *tensor.Matrix
	// Model is the trained model; only its parameters are read.
	Model *nn.Model
	// Sampling configures neighbor sampling per request. Use the
	// training fanouts for the training-matched latency/accuracy point.
	// Node-wise draws are keyed by (Seed, draw, layer, node), so
	// answers are deterministic.
	Sampling sample.Config
	// Platform describes the simulated cluster; defaults to
	// hardware.SingleMachine8GPU.
	Platform *hardware.Platform
	// Workers is the inference pool size (one simulated device each);
	// 0 selects one worker per platform device, and a negative value or
	// one above the platform's device count is refused.
	Workers int
	// MaxBatch is the micro-batcher's seed budget per mini-batch
	// (0 selects 64; negative is refused). A batch closes as soon as its coalesced seed count
	// reaches MaxBatch.
	MaxBatch int
	// MaxDelay (0 selects 2ms; negative is refused) bounds how long a batch waits for more
	// requests, which it does only while every other worker is busy: a
	// batch closes no later than MaxDelay after its oldest request was
	// enqueued, whatever its size.
	MaxDelay time.Duration
	// CacheBytes is the per-device feature-cache budget (0 disables
	// caching).
	CacheBytes int64
	// Freq are optional per-node access frequencies (a training
	// dry-run's, e.g. checkpoint.Snapshot.Freq). With them the caches
	// hold the most-accessed rows (the paper's hotness rule); without,
	// the highest-degree rows, which needs no access trace.
	Freq []int64
	Seed uint64
	// NewModel constructs an architecture-matched empty model; required
	// for ReloadCheckpoint (the checkpoint's parameters are loaded into
	// a fresh instance so a bad file can never corrupt the live model).
	NewModel func() *nn.Model
	// ReloadPath is the training snapshot (internal/checkpoint format)
	// ReloadCheckpoint re-reads. Empty disables checkpoint reloading;
	// Reload with an explicit model still works.
	ReloadPath string
}

func (c *Config) normalize() error {
	if c.Graph == nil {
		return fmt.Errorf("serve: nil graph")
	}
	if c.Feats == nil {
		return fmt.Errorf("serve: nil features (serving requires real features)")
	}
	if c.Feats.Rows != c.Graph.NumNodes() {
		return fmt.Errorf("serve: %d feature rows for %d nodes", c.Feats.Rows, c.Graph.NumNodes())
	}
	if c.Model == nil {
		return fmt.Errorf("serve: nil model")
	}
	if c.Freq != nil && len(c.Freq) != c.Graph.NumNodes() {
		return fmt.Errorf("serve: %d access frequencies for %d nodes (checkpoint from another dataset?)", len(c.Freq), c.Graph.NumNodes())
	}
	switch {
	case c.Workers < 0:
		return fmt.Errorf("serve: Workers %d is negative", c.Workers)
	case c.MaxBatch < 0:
		return fmt.Errorf("serve: MaxBatch %d is negative", c.MaxBatch)
	case c.MaxDelay < 0:
		return fmt.Errorf("serve: MaxDelay %v is negative", c.MaxDelay)
	}
	if c.Platform == nil {
		c.Platform = hardware.SingleMachine8GPU()
	}
	switch n := c.Platform.NumDevices(); {
	case c.Workers > n:
		return fmt.Errorf("serve: Workers %d exceeds the platform's %d devices", c.Workers, n)
	case c.Workers == 0:
		c.Workers = n
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	return nil
}

// Result is the prediction for one requested node.
type Result struct {
	Node graph.NodeID `json:"node"`
	// Label is the argmax class.
	Label int `json:"label"`
	// Scores are the raw per-class logits.
	Scores []float32 `json:"scores"`
}

// pending is one enqueued request; ctx is its caller's.
type pending struct {
	ctx   context.Context
	nodes []graph.NodeID
	enq   time.Time
	res   []Result
	err   error
	done  chan struct{}
}

// Server is an online inference server. Create with New, issue
// requests with Predict (safe for concurrent use), and stop with
// Close.
type Server struct {
	cfg   Config
	store *cache.Store
	stats *Stats
	reg   *obs.Registry
	obsO  obs.Options
	spans *obs.Collector
	reqs  chan *pending

	// The load the batch trigger reads (batcher.go), under load: idle
	// counts workers blocked on an empty queue, busy counts workers
	// executing a batch, and finished is closed and replaced each time a
	// batch completes, waking every worker waiting behind it.
	load     sync.Mutex
	idle     int
	busy     int
	finished chan struct{}

	mu     sync.RWMutex
	closed bool
	// The model generation under mu: inf is the live one, which each
	// batch reads as it starts; retiredSimSec accumulates the simulated
	// time of replaced generations, and modelVersion counts swaps.
	inf           *engine.Inferencer
	retiredSimSec float64
	modelVersion  int

	reloads   *obs.Counter
	wg        sync.WaitGroup
	flushOnce sync.Once
	flushErr  error
}

// New builds the feature store (host placement + per-device caches)
// and the first model generation, and starts the worker pool. Options
// attach observers: obs.WithTracePath exports a Chrome trace of the
// workers' simulated-clock spans on Close, obs.WithObserver receives
// the span tracks and the metrics registry on Close.
func New(cfg Config, opts ...obs.Option) (*Server, error) {
	s, err := newServer(cfg, opts...)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

// newServer is New without starting the workers: requests queue until
// start.
func newServer(cfg Config, opts ...obs.Option) (*Server, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	store := buildStore(&cfg)
	inf, err := newInferencer(&cfg, store, cfg.Model)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		store:    store,
		inf:      inf,
		reg:      obs.NewRegistry(),
		obsO:     obs.BuildOptions(opts...),
		reqs:     make(chan *pending, queueCap),
		finished: make(chan struct{}),
	}
	// The sim-seconds gauge spans model swaps: retired generations'
	// totals accumulate and the live inferencer adds its own.
	s.stats = newStats(s.reg, cfg.MaxBatch, func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.retiredSimSec + s.inf.SimSeconds()
	})
	s.reloads = s.reg.Counter("apt_serve_reloads_total", "Live model swaps applied.")
	if s.obsO.Enabled() {
		// Span collection is opt-in: a long-running server would grow the
		// span buffers without bound for no reader.
		s.spans = obs.NewCollector()
		inf.AttachSpans(s.spans)
	}
	return s, nil
}

// start launches one goroutine per inference worker; they run until
// Close.
func (s *Server) start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
}

// buildStore assembles the serving feature store: host placement plus
// the per-device caches. The store is model-independent — it outlives
// model swaps, so a reload re-admits nothing — and fully admitted
// before the first generation builds its projection table from it.
func buildStore(cfg *Config) *cache.Store {
	store := cache.NewStore(cfg.Platform, cfg.Graph.NumNodes(), cfg.Feats.Cols, cfg.Feats)
	store.HostByRange()
	policy := cache.PolicyDegree
	if cfg.Freq != nil {
		policy = cache.PolicyHotGlobal
	}
	store.Admit(cache.SelectConfig{Policy: policy, Freq: cfg.Freq, Graph: cfg.Graph}, cfg.CacheBytes, 0)
	return store
}

// newInferencer builds one model generation over the shared store.
func newInferencer(cfg *Config, store *cache.Store, m *nn.Model) (*engine.Inferencer, error) {
	return engine.NewInferencer(engine.InferConfig{
		Platform: cfg.Platform,
		Graph:    cfg.Graph,
		Store:    store,
		Model:    m,
		Sampling: cfg.Sampling,
		Workers:  cfg.Workers,
		Seed:     cfg.Seed,
	})
}

// Reload swaps the serving model: every batch that starts after Reload
// returns runs on m, so a request sent after it is answered by m.
// In-flight batches complete on the model they started with, and the
// workers and the request queue are untouched, so no request is
// dropped. The feature store is shared (it holds features, not model
// state); the layer-0 projection table is model state, so each
// generation builds its own, here, before the swap. m must match the
// architecture the server was built with only in input/output
// contract; its parameters are used as-is.
func (s *Server) Reload(m *nn.Model) error {
	if m == nil {
		return fmt.Errorf("serve: reload with nil model")
	}
	inf, err := newInferencer(&s.cfg, s.store, m)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	if s.spans != nil {
		inf.AttachSpans(s.spans)
	}
	s.retiredSimSec += s.inf.SimSeconds()
	s.inf = inf
	s.modelVersion++
	s.reloads.Inc()
	s.mu.Unlock()
	return nil
}

// ReloadCheckpoint re-reads the training snapshot at the configured
// ReloadPath into a fresh model from Config.NewModel and swaps it in
// via Reload. The parameters land in a
// new instance first, so a corrupt or mismatched file fails the reload
// and leaves the live model untouched.
func (s *Server) ReloadCheckpoint() error {
	if s.cfg.ReloadPath == "" {
		return fmt.Errorf("serve: no reload path configured")
	}
	if s.cfg.NewModel == nil {
		return fmt.Errorf("serve: reload requires Config.NewModel")
	}
	m := s.cfg.NewModel()
	if err := checkpoint.LoadModelInto(m, s.cfg.ReloadPath); err != nil {
		return fmt.Errorf("serve: reload: %w", err) // err names the path
	}
	return s.Reload(m)
}

// ModelVersion counts the model swaps applied so far (0 until the
// first Reload).
func (s *Server) ModelVersion() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.modelVersion
}

// Predict answers one request: the predicted label and per-class
// scores for each requested node, in request order (duplicates
// allowed; they share one sampled computation). It blocks until the
// micro-batcher has executed the request's batch. Unknown node IDs
// fail the whole request with an UnknownNodeError before it is
// enqueued; after Close has begun it fails with ErrServerClosed, and
// on a full queue with ErrOverloaded.
func (s *Server) Predict(nodes []graph.NodeID) ([]Result, error) {
	return s.PredictContext(context.Background(), nodes)
}

// PredictContext is Predict under a context: cancellation abandons the
// wait and returns ctx.Err(). A request whose context is done by the
// time a worker collects it is dropped, never executed; once in a batch
// it executes anyway — only this caller stops waiting, so co-batched
// requests are unaffected.
func (s *Server) PredictContext(ctx context.Context, nodes []graph.NodeID) ([]Result, error) {
	if len(nodes) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := s.cfg.Graph.NumNodes()
	for _, v := range nodes {
		if v < 0 || int(v) >= n {
			return nil, &UnknownNodeError{Node: v, NumNodes: n}
		}
	}
	//apt:allow simclock enqueue stamp feeds the wall-clock latency metric and max-delay trigger
	p := &pending{ctx: ctx, nodes: nodes, enq: time.Now(), done: make(chan struct{})}
	// The read lock spans the enqueue so Close cannot close the channel
	// between the closed-flag check and the send: Close flips the flag
	// under the write lock, which waits out every in-flight send.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.stats.recordRejected()
		return nil, ErrServerClosed
	}
	select {
	case s.reqs <- p:
	default:
		s.mu.RUnlock()
		s.stats.recordRejected()
		return nil, ErrOverloaded
	}
	s.mu.RUnlock()
	select {
	case <-p.done:
		return p.res, p.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Stats returns a snapshot of the server's metrics registry.
func (s *Server) Stats() Snapshot { return s.stats.Snapshot() }

// Metrics returns the server's metrics registry (the /metrics
// endpoint renders it in the text exposition format).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// NumWorkers returns the inference pool size.
func (s *Server) NumWorkers() int { return s.cfg.Workers }

// Close stops the server: new Predict calls fail with ErrServerClosed,
// while already-queued and in-flight requests drain and complete.
// Once every worker has exited, the observability options flush —
// the Chrome trace file is written and any observer sees the final
// span tracks and metrics. Close blocks until all of that is done and
// is idempotent (later calls return the first flush error).
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.mu.Unlock()
		close(s.reqs)
	} else {
		s.mu.Unlock()
	}
	s.wg.Wait()
	// The Once serializes concurrent Closes: all of them return after
	// the flush has happened, with its error.
	s.flushOnce.Do(func() { s.flushErr = s.obsO.Flush(s.spans, s.reg) })
	return s.flushErr
}
