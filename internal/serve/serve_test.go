package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/tensor"
)

// testFixture builds a small dataset and a (randomly initialized)
// model for serving tests, served under Full sampling unless a test
// sets smp. Every sampling method a server accepts makes a prediction
// a function of (model, node) — node-wise draws are keyed by
// (fixtureSeed, draw, layer, node) — so batched and single-request
// answers must agree bit-for-bit.
type testFixture struct {
	ds    *dataset.Dataset
	model *nn.Model
	smp   sample.Config
}

func newFixture(t testing.TB) *testFixture {
	t.Helper()
	ds := dataset.Build(dataset.Spec{
		Name: "serve-test", Abbr: "ST",
		NumNodes: 600, AvgDegree: 8, FeatDim: 16, Classes: 5,
		SkewA: 0.45, HomophilyDegree: 4, TrainFraction: 0.3, Seed: 21,
	}, true)
	m := nn.NewGraphSAGE(ds.FeatDim, 16, ds.Classes, 2)
	m.Init(graph.NewRNG(7))
	return &testFixture{
		ds:    ds,
		model: m,
		smp:   sample.Config{Fanouts: []int{0, 0}, Method: sample.Full},
	}
}

// fixtureSeed is the servers' Config.Seed, the key of their draws.
const fixtureSeed = 3

// samplings are the methods the answer-identity tests run under: full
// neighbourhoods, and fanout sampling small enough that most nodes'
// neighbourhoods are drawn from.
var samplings = []struct {
	name string
	cfg  sample.Config
}{
	{"full", sample.Config{Fanouts: []int{0, 0}, Method: sample.Full}},
	{"fanout", sample.Config{Fanouts: []int{3, 3}}},
}

func (f *testFixture) server(t testing.TB, mutate func(*Config), opts ...obs.Option) *Server {
	t.Helper()
	s := f.unstarted(t, mutate, opts...)
	s.start()
	return s
}

// unstarted is server without its workers: requests queue until the
// test calls s.start.
func (f *testFixture) unstarted(t testing.TB, mutate func(*Config), opts ...obs.Option) *Server {
	t.Helper()
	cfg := Config{
		Graph:    f.ds.Graph,
		Feats:    f.ds.Feats,
		Model:    f.model,
		Sampling: f.smp,
		Platform: hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 2),
		MaxBatch: 32,
		MaxDelay: time.Millisecond,
		Seed:     fixtureSeed,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := newServer(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// direct computes the reference answer for one node with fresh keyed
// samplers and the inference-only forward, no batching involved: the
// mean of its first f.draws(v) keyed draws, summed in draw order.
func (f *testFixture) direct(t testing.TB, v graph.NodeID) []float32 {
	t.Helper()
	return f.directWith(f.model, v)
}

// directWith is direct on model m.
func (f *testFixture) directWith(m *nn.Model, v graph.NodeID) []float32 {
	draw := func(k uint64) []float32 {
		smp := sample.NewSampler(f.ds.Graph, f.smp, graph.NewRNG(0))
		smp.SetKey(fixtureSeed ^ k)
		mb := smp.Sample([]graph.NodeID{v})
		logits := m.PredictGathered(mb, tensor.FS(f.ds.Feats), mb.Layer1().Src)
		defer tensor.Put(logits)
		return append([]float32(nil), logits.Row(0)...)
	}
	a := draw(0)
	n := f.draws(v)
	if n == 1 {
		return a
	}
	for k := 1; k < n; k++ {
		for i, x := range draw(uint64(k)) {
			a[i] += x
		}
	}
	for i := range a {
		a[i] /= float32(n)
	}
	return a
}

// draws is how many keyed draws the fixture's sampling averages for v:
// one under Full sampling, otherwise ⌈degree / product of the
// fanouts⌉ between one and four.
func (f *testFixture) draws(v graph.NodeID) int {
	if f.smp.Method == sample.Full {
		return 1
	}
	tree := 1
	for _, fo := range f.smp.Fanouts {
		tree *= fo
	}
	return min(4, max(1, (f.ds.Graph.Degree(v)+tree-1)/tree))
}

// TestBatchedEqualsSingle fires many concurrent single-node requests
// (forcing coalesced batches) and checks every answer is bit-identical
// to unbatched inference, duplicates included, under full and under
// fanout sampling.
func TestBatchedEqualsSingle(t *testing.T) {
	for _, sc := range samplings {
		t.Run(sc.name, func(t *testing.T) {
			f := newFixture(t)
			f.smp = sc.cfg
			testBatchedEqualsSingle(t, f)
		})
	}
}

func testBatchedEqualsSingle(t *testing.T, f *testFixture) {
	s := f.server(t, nil)
	defer s.Close()

	nodes := []graph.NodeID{0, 1, 17, 17, 99, 230, 599, 42, 1, 0}
	want := make(map[graph.NodeID][]float32)
	hubs := 0
	for _, v := range nodes {
		if _, ok := want[v]; !ok {
			want[v] = f.direct(t, v)
		}
		if f.draws(v) > 1 {
			hubs++
		}
	}
	if f.smp.Method != sample.Full && (hubs == 0 || hubs == len(nodes)) {
		t.Fatalf("%d of nodes %v are averaged over several draws: the fixture no longer covers both kinds of answer", hubs, nodes)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for rep := 0; rep < 8; rep++ {
		for _, v := range nodes {
			wg.Add(1)
			go func(v graph.NodeID) {
				defer wg.Done()
				res, err := s.Predict([]graph.NodeID{v})
				if err != nil {
					errs <- err
					return
				}
				for i, w := range want[v] {
					if math.Float32bits(res[0].Scores[i]) != math.Float32bits(w) {
						errs <- errors.New("batched scores differ from single-request inference")
						return
					}
				}
			}(v)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMultiNodeRequestWithDuplicates checks one request carrying
// duplicate node IDs gets per-position answers, duplicates equal.
func TestMultiNodeRequestWithDuplicates(t *testing.T) {
	f := newFixture(t)
	s := f.server(t, nil)
	defer s.Close()

	req := []graph.NodeID{7, 7, 300, 7}
	res, err := s.Predict(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(req) {
		t.Fatalf("got %d results for %d nodes", len(res), len(req))
	}
	for i, v := range req {
		if res[i].Node != v {
			t.Fatalf("result %d is for node %d, want %d", i, res[i].Node, v)
		}
		want := f.direct(t, v)
		for j, w := range want {
			if res[i].Scores[j] != w {
				t.Fatalf("node %d scores differ from single-request inference", v)
			}
		}
	}
	if res[0].Label != res[1].Label || res[0].Label != res[3].Label {
		t.Fatal("duplicate nodes got different labels")
	}
}

// TestUnknownNode checks out-of-range IDs are rejected with the typed
// error before reaching the queue.
func TestUnknownNode(t *testing.T) {
	f := newFixture(t)
	s := f.server(t, nil)
	defer s.Close()

	_, err := s.Predict([]graph.NodeID{0, graph.NodeID(f.ds.Graph.NumNodes())})
	var ue *UnknownNodeError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UnknownNodeError", err)
	}
	if int(ue.Node) != f.ds.Graph.NumNodes() {
		t.Fatalf("error names node %d", ue.Node)
	}
	if _, err := s.Predict([]graph.NodeID{-1}); err == nil {
		t.Fatal("negative node accepted")
	}
	if _, err := s.Predict(nil); err != nil {
		t.Fatalf("empty request errored: %v", err)
	}
}

// TestMicroBatchingCoalesces floods one worker and checks batches
// bigger than one request actually formed. A lone worker never waits
// for company, so the flood is queued before it starts: what it then
// finds queued is what it batches, on any number of processors.
func TestMicroBatchingCoalesces(t *testing.T) {
	f := newFixture(t)
	s := f.unstarted(t, func(c *Config) {
		c.Platform = hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 1)
		c.MaxDelay = 5 * time.Millisecond
	})
	defer s.Close()

	const n = 128
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Predict([]graph.NodeID{graph.NodeID(i % 600)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	waitQueued(s, n)
	s.start()
	wg.Wait()
	st := s.Stats()
	if st.Requests != n {
		t.Fatalf("requests = %d, want %d", st.Requests, n)
	}
	if st.Batches >= st.Requests {
		t.Fatalf("no coalescing: %d batches for %d requests", st.Batches, st.Requests)
	}
	if st.MaxBatchSeeds <= 1 {
		t.Fatalf("max batch seeds = %d, want > 1", st.MaxBatchSeeds)
	}
	if st.P50Ms <= 0 || st.P95Ms < st.P50Ms || st.P99Ms < st.P95Ms {
		t.Fatalf("bad percentiles: p50=%v p95=%v p99=%v", st.P50Ms, st.P95Ms, st.P99Ms)
	}
	if st.ThroughputRPS <= 0 {
		t.Fatal("zero throughput")
	}
}

// TestStatsCountAnsweredRequests: a client that has its answer must
// find it counted. Clients call Predict in sequence and read Stats()
// after every return; the count may never be behind the number of
// answers handed out so far (the worker records a batch before it
// releases any of the batch's callers, not after the last of them).
func TestStatsCountAnsweredRequests(t *testing.T) {
	f := newFixture(t)
	s := f.server(t, nil)
	defer s.Close()

	const clients, perClient = 8, 100
	var answered atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				v := graph.NodeID((c*perClient + i) % f.ds.Graph.NumNodes())
				if _, err := s.Predict([]graph.NodeID{v}); err != nil {
					t.Error(err)
					return
				}
				held := answered.Add(1)
				if got := s.Stats().Requests; got < held {
					t.Errorf("with %d answers returned, Stats().Requests = %d", held, got)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestFullCacheHitsEverything gives every device a cache big enough
// for the whole feature matrix; every read must then be a GPU hit.
func TestFullCacheHitsEverything(t *testing.T) {
	f := newFixture(t)
	s := f.server(t, func(c *Config) {
		c.CacheBytes = int64(f.ds.Graph.NumNodes()) * int64(4*f.ds.FeatDim)
	})
	defer s.Close()

	for i := 0; i < 20; i++ {
		if _, err := s.Predict([]graph.NodeID{graph.NodeID(i * 13 % 600)}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.CacheHitRate != 1.0 {
		t.Fatalf("cache hit rate = %v, want 1.0 (reads: %v)", st.CacheHitRate, st.FeatureReads)
	}
	if st.SimSeconds <= 0 {
		t.Fatal("no simulated time recorded")
	}
}

// TestCloseDrainsAndRejects closes the server while requests are in
// flight: every Predict must either complete with a valid answer or
// fail with ErrServerClosed, and Predict after Close always fails.
func TestCloseDrainsAndRejects(t *testing.T) {
	f := newFixture(t)
	s := f.server(t, nil)

	const n = 200
	var wg sync.WaitGroup
	var completed, rejected atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Predict([]graph.NodeID{graph.NodeID(i % 600)})
			switch {
			case err == nil:
				if len(res) != 1 || len(res[0].Scores) != f.ds.Classes {
					t.Error("drained request returned a malformed result")
				}
				completed.Add(1)
			case errors.Is(err, ErrServerClosed):
				rejected.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	time.Sleep(500 * time.Microsecond) // let some requests enqueue
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if completed.Load()+rejected.Load() != n {
		t.Fatalf("completed %d + rejected %d != %d", completed.Load(), rejected.Load(), n)
	}
	if _, err := s.Predict([]graph.NodeID{1}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-close Predict: %v, want ErrServerClosed", err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestConfigValidation exercises New's error paths.
func TestConfigValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := New(Config{Feats: f.ds.Feats, Model: f.model, Sampling: f.smp}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := New(Config{Graph: f.ds.Graph, Model: f.model, Sampling: f.smp}); err == nil {
		t.Fatal("nil features accepted")
	}
	if _, err := New(Config{Graph: f.ds.Graph, Feats: f.ds.Feats, Sampling: f.smp}); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := New(Config{Graph: f.ds.Graph, Feats: f.ds.Feats, Model: f.model, Sampling: f.smp, Freq: make([]int64, 7)}); err == nil {
		t.Fatal("frequencies of another graph's length accepted")
	}
}

// TestConfigRefusesNegativeKnobs: a negative Workers, MaxBatch or
// MaxDelay is an error naming the field, not a silent default; zero
// still selects the default.
func TestConfigRefusesNegativeKnobs(t *testing.T) {
	f := newFixture(t)
	base := Config{Graph: f.ds.Graph, Feats: f.ds.Feats, Model: f.model, Sampling: f.smp}
	for _, c := range []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Workers = -1 }, "Workers -1"},
		{func(c *Config) { c.MaxBatch = -2 }, "MaxBatch -2"},
		{func(c *Config) { c.MaxDelay = -time.Millisecond }, "MaxDelay -1ms"},
	} {
		cfg := base
		c.mutate(&cfg)
		if err := cfg.normalize(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("normalize = %v, want an error containing %q", err, c.want)
		}
	}
	cfg := base
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != cfg.Platform.NumDevices() || cfg.MaxBatch != 64 || cfg.MaxDelay != 2*time.Millisecond {
		t.Errorf("zero knobs normalized to Workers %d, MaxBatch %d, MaxDelay %v; want %d, 64, 2ms",
			cfg.Workers, cfg.MaxBatch, cfg.MaxDelay, cfg.Platform.NumDevices())
	}
}

// TestCheckpointFreqSelectsHotRows: a server started from a training
// snapshot admits the rows the snapshot's access frequencies rank
// hottest (the paper's rule — what the training caches held), where a
// snapshot of the same model without frequencies falls back to the
// highest degrees. The frequencies are skewed onto the LOWEST-degree nodes so
// the two rules cannot pick the same set.
func TestCheckpointFreqSelectsHotRows(t *testing.T) {
	f := newFixture(t)
	n := f.ds.Graph.NumNodes()
	const rows = 40
	byDegree := make([]graph.NodeID, n)
	for v := range byDegree {
		byDegree[v] = graph.NodeID(v)
	}
	sort.Slice(byDegree, func(i, j int) bool {
		di, dj := f.ds.Graph.Degree(byDegree[i]), f.ds.Graph.Degree(byDegree[j])
		if di != dj {
			return di < dj
		}
		return byDegree[i] < byDegree[j]
	})
	freq := make([]int64, n)
	wantHot := map[graph.NodeID]bool{}
	for i, v := range byDegree[:rows] {
		freq[v] = int64(1000 - i)
		wantHot[v] = true
	}

	dir := t.TempDir()
	snapPath, bareSnapPath := filepath.Join(dir, "snap.aptc"), filepath.Join(dir, "bare.aptc")
	snap := &checkpoint.Snapshot{Strategy: "GDP", Devices: 2, Model: checkpoint.EncodeModel(f.model), Freq: freq}
	if err := snap.WriteFile(snapPath); err != nil {
		t.Fatal(err)
	}
	snap.Freq = nil
	if err := snap.WriteFile(bareSnapPath); err != nil {
		t.Fatal(err)
	}

	cached := func(path string) []graph.NodeID {
		m := nn.NewGraphSAGE(f.ds.FeatDim, 16, f.ds.Classes, 2)
		got, err := checkpoint.LoadModelFreq(m, path)
		if err != nil {
			t.Fatal(err)
		}
		s := f.server(t, func(c *Config) {
			c.Model, c.Freq = m, got
			c.CacheBytes = rows * int64(4*f.ds.FeatDim)
		})
		defer s.Close()
		return s.store.CachedList(0)
	}
	hot := cached(snapPath)
	if len(hot) != rows {
		t.Fatalf("snapshot server cached %d rows, want %d", len(hot), rows)
	}
	for _, v := range hot {
		if !wantHot[v] {
			t.Fatalf("snapshot server cached node %d, not among the %d most-accessed", v, rows)
		}
	}
	for _, v := range cached(bareSnapPath) {
		if wantHot[v] {
			t.Fatalf("server without frequencies cached low-degree node %d: it should rank by degree", v)
		}
	}
}

// enqueue puts a request for v straight onto s's queue, as Predict does
// once it has checked it, and returns it for the test to wait on.
func enqueue(s *Server, v graph.NodeID) *pending {
	p := &pending{ctx: context.Background(), nodes: []graph.NodeID{v}, enq: time.Now(), done: make(chan struct{})}
	s.reqs <- p
	return p
}

// waitQueued yields until the request queue holds n requests.
func waitQueued(s *Server, n int) {
	for len(s.reqs) < n {
		runtime.Gosched()
	}
}

// TestIdleWorkerDispatchesAtOnce: with a worker free, a request that
// finds the queue empty is executed at once instead of waiting out
// MaxDelay for company (which would make each request here take 1 s).
func TestIdleWorkerDispatchesAtOnce(t *testing.T) {
	f := newFixture(t)
	s := f.server(t, func(c *Config) { c.MaxDelay = time.Second })
	defer s.Close()

	for i := 0; i < 20; i++ {
		start := time.Now()
		if _, err := s.Predict([]graph.NodeID{graph.NodeID(i * 29 % 600)}); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d >= 100*time.Millisecond {
			t.Fatalf("request %d took %v with an idle worker (MaxDelay 1s)", i, d)
		}
	}
}

// TestBusyWorkersStillCoalesce: a burst that queues up while both
// workers are busy is served in shared batches. The workers start only
// once the whole burst is queued, so a worker never finds the queue
// dry and the coalescing does not depend on goroutine scheduling.
func TestBusyWorkersStillCoalesce(t *testing.T) {
	f := newFixture(t)
	s := f.unstarted(t, nil)
	defer s.Close()

	const n = 256
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Predict([]graph.NodeID{graph.NodeID(i * 7 % 600)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	waitQueued(s, n)
	s.start()
	wg.Wait()
	st := s.Stats()
	if st.Requests != n {
		t.Fatalf("requests = %d, want %d", st.Requests, n)
	}
	if st.Batches >= st.Requests {
		t.Fatalf("no coalescing: %d batches for %d requests", st.Batches, st.Requests)
	}
}

// TestPeerFinishReleasesWaitingWorker: a worker whose queue ran dry
// while its only peer is executing keeps waiting, and the peer finishing
// releases it long before MaxDelay. The peer is stood in for by the busy
// count, so the one real worker is the waiter.
func TestPeerFinishReleasesWaitingWorker(t *testing.T) {
	f := newFixture(t)
	s := f.server(t, func(c *Config) {
		c.Platform = hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 1)
		c.MaxDelay = 10 * time.Minute
	})
	defer s.Close()

	s.load.Lock()
	s.busy++
	s.load.Unlock()
	const v = graph.NodeID(42)
	type answer struct {
		res []Result
		err error
	}
	got := make(chan answer, 1)
	go func() {
		res, err := s.Predict([]graph.NodeID{v})
		got <- answer{res, err}
	}()
	select {
	case <-got:
		t.Fatal("request dispatched while every peer was busy")
	case <-time.After(50 * time.Millisecond):
	}
	s.batchFinished()
	select {
	case a := <-got:
		if a.err != nil {
			t.Fatal(a.err)
		}
		want := f.direct(t, v)
		for i, w := range want {
			if a.res[0].Scores[i] != w {
				t.Fatal("released request's scores differ from single-request inference")
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer finishing did not release the waiting worker")
	}
}

// TestFullQueueFailsFast: a request arriving at a full queue fails at
// once with ErrOverloaded and is counted as rejected; the queued
// requests still complete, and the server accepts work again once they
// drain.
func TestFullQueueFailsFast(t *testing.T) {
	f := newFixture(t)
	s := f.unstarted(t, nil)
	defer s.Close()

	var queued []*pending
	for len(s.reqs) < cap(s.reqs) {
		queued = append(queued, enqueue(s, 1))
	}
	if _, err := s.Predict([]graph.NodeID{2}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Predict on a full queue: %v, want ErrOverloaded", err)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	s.start()
	for _, p := range queued {
		<-p.done
		if p.err != nil || len(p.res) != 1 {
			t.Fatalf("queued request: %v, %d results", p.err, len(p.res))
		}
	}
	if _, err := s.Predict([]graph.NodeID{2}); err != nil {
		t.Fatalf("Predict after the queue drained: %v", err)
	}
}

// TestCancelledRequestNotExecuted: a request whose caller gave up
// before a worker collected it is dropped, never sampled or counted,
// and the requests that share its batch get bit-identical answers.
func TestCancelledRequestNotExecuted(t *testing.T) {
	f := newFixture(t)
	s := f.unstarted(t, func(c *Config) {
		c.Platform = hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 1)
	})
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		_, err := s.PredictContext(ctx, []graph.NodeID{77})
		gone <- err
	}()
	waitQueued(s, 1)
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request: %v, want context.Canceled", err)
	}

	live := []graph.NodeID{3, 40, 3}
	errs := make(chan error, len(live))
	var wg sync.WaitGroup
	for _, v := range live {
		wg.Add(1)
		go func(v graph.NodeID) {
			defer wg.Done()
			res, err := s.Predict([]graph.NodeID{v})
			if err != nil {
				errs <- err
				return
			}
			for i, w := range f.direct(t, v) {
				if res[0].Scores[i] != w {
					errs <- errors.New("scores next to a dropped request differ from single-request inference")
					return
				}
			}
		}(v)
	}
	waitQueued(s, 1+len(live))
	s.start()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Batches != 1 || st.Requests != int64(len(live)) || st.Seeds != 2 {
		t.Fatalf("batches/requests/seeds = %d/%d/%d, want 1/%d/2 (the cancelled node executed?)",
			st.Batches, st.Requests, st.Seeds, len(live))
	}
}

// TestOneAnswerPerNode asks for node 17 two dozen times under fanout
// sampling ([3, 3], below its degree, so its neighbourhood is drawn):
// from concurrent clients of a two-worker server, mixed into requests
// with different companions, and each round on a fresh model generation
// (a Reload of the same model) whose answer table starts empty, so
// either worker may compute it in any batch. Every answer must be the
// one its direct keyed computation gives, by math.Float32bits.
func TestOneAnswerPerNode(t *testing.T) {
	f := newFixture(t)
	f.smp = sample.Config{Fanouts: []int{3, 3}}
	const v = 17
	if d := f.ds.Graph.Degree(v); d <= 3 {
		t.Fatalf("node %d has degree %d: fanout 3 would not sample it", v, d)
	}
	s := f.server(t, nil)
	defer s.Close()
	want := f.direct(t, v)
	var (
		wg    sync.WaitGroup
		asked atomic.Int64
	)
	errs := make(chan error, 64)
	for round := 0; round < 6; round++ {
		if err := s.Reload(f.model); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				a, b := graph.NodeID(100+round*31+c), graph.NodeID(400+round*7+c*13)
				req := [][]graph.NodeID{{v}, {a, v}, {v, b, a}, {b, v}}[c]
				res, err := s.Predict(req)
				if err != nil {
					errs <- err
					return
				}
				for _, r := range res {
					if r.Node != v {
						continue
					}
					asked.Add(1)
					for j, w := range want {
						if math.Float32bits(r.Scores[j]) != math.Float32bits(w) {
							errs <- fmt.Errorf("round %d, request %v: node %d score %d = %v, want %v", round, req, v, j, r.Scores[j], w)
							return
						}
					}
				}
			}(c)
		}
		wg.Wait()
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := asked.Load(); n < 20 {
		t.Fatalf("node %d answered %d times, want at least 20", v, n)
	}
}
