package serve

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/nn"
)

// altModel builds a second architecture-matched model with different
// parameters, so a swap is observable in the scores.
func (f *testFixture) altModel(seed uint64) *nn.Model {
	m := nn.NewGraphSAGE(f.ds.FeatDim, 16, f.ds.Classes, 2)
	m.Init(graph.NewRNG(seed))
	return m
}

func TestReloadSwapsModel(t *testing.T) {
	f := newFixture(t)
	s := f.server(t, nil)
	defer s.Close()

	before, err := s.Predict([]graph.NodeID{5})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(f.altModel(99)); err != nil {
		t.Fatal(err)
	}
	if s.ModelVersion() != 1 {
		t.Fatalf("model version %d after one reload", s.ModelVersion())
	}
	after, err := s.Predict([]graph.NodeID{5})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range before[0].Scores {
		if before[0].Scores[i] != after[0].Scores[i] {
			same = false
		}
	}
	if same {
		t.Fatal("scores identical after swapping to a different model")
	}
}

// TestReloadRebuildsProjection checks that a swap serves the new
// model's own layer-0 projection and answers: under full and under
// fanout sampling every answer after Reload(m2) equals m2's direct
// Predict bit for bit and differs from m1's — a projection or answer
// table kept with the shared feature store instead of with the
// generation would keep answering with m1's.
func TestReloadRebuildsProjection(t *testing.T) {
	for _, sc := range samplings {
		t.Run(sc.name, func(t *testing.T) {
			f := newFixture(t)
			f.smp = sc.cfg
			testReloadRebuildsProjection(t, f)
		})
	}
}

func testReloadRebuildsProjection(t *testing.T, f *testFixture) {
	s := f.server(t, nil)
	defer s.Close()
	nodes := []graph.NodeID{0, 5, 42, 230, 599}
	for _, v := range nodes { // serve m1 first, so its generation is live
		if _, err := s.Predict([]graph.NodeID{v}); err != nil {
			t.Fatal(err)
		}
	}
	m2 := f.altModel(99)
	if err := s.Reload(m2); err != nil {
		t.Fatal(err)
	}
	res, err := s.Predict(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range nodes {
		want, old := f.directWith(m2, v), f.direct(t, v)
		same := true
		for j, w := range want {
			if math.Float32bits(res[i].Scores[j]) != math.Float32bits(w) {
				t.Fatalf("node %d: score %d = %v after reload, m2 predicts %v", v, j, res[i].Scores[j], w)
			}
			same = same && w == old[j]
		}
		if same {
			t.Fatalf("node %d: m2 answers as m1 does; the swap is not observable", v)
		}
	}
}

// TestReloadDropsNoRequests hammers Predict from many goroutines while
// repeatedly hot-swapping the model: every request must complete
// without error — the blue/green handoff may never drop or fail one.
func TestReloadDropsNoRequests(t *testing.T) {
	f := newFixture(t)
	s := f.server(t, nil)
	defer s.Close()

	const clients, perClient, reloads = 8, 50, 20
	var wg sync.WaitGroup
	var completed, failed atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				v := graph.NodeID((c*perClient + i) % f.ds.Graph.NumNodes())
				res, err := s.Predict([]graph.NodeID{v, v + 1})
				if err != nil || len(res) != 2 {
					failed.Add(1)
					continue
				}
				completed.Add(1)
			}
		}(c)
	}
	reloadDone := make(chan struct{})
	go func() {
		defer close(reloadDone)
		for i := 0; i < reloads; i++ {
			if err := s.Reload(f.altModel(uint64(100 + i))); err != nil {
				t.Errorf("reload %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	<-reloadDone
	if failed.Load() != 0 {
		t.Fatalf("%d requests failed during reloads", failed.Load())
	}
	if completed.Load() != clients*perClient {
		t.Fatalf("completed %d of %d requests", completed.Load(), clients*perClient)
	}
	if s.ModelVersion() != reloads {
		t.Fatalf("model version %d after %d reloads", s.ModelVersion(), reloads)
	}
	snap := s.Stats()
	if snap.Requests != clients*perClient {
		t.Fatalf("stats counted %d requests, want %d", snap.Requests, clients*perClient)
	}
	if snap.SimSeconds <= 0 {
		t.Fatal("sim-seconds gauge lost time across generations")
	}
}

// TestReloadCheckpointFromSnapshotAndRaw drives the file-based reload
// path: a training snapshot swaps the model in; a raw parameter file —
// not a snapshot — or a corrupt one fails the reload and leaves the
// server answering with the model it had.
func TestReloadCheckpointFromSnapshotAndRaw(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	s := f.server(t, func(c *Config) {
		c.ReloadPath = path
		c.NewModel = func() *nn.Model {
			return nn.NewGraphSAGE(f.ds.FeatDim, 16, f.ds.Classes, 2)
		}
	})
	defer s.Close()

	// Full training snapshot.
	var buf bytes.Buffer
	if err := f.altModel(6).SaveParams(&buf); err != nil {
		t.Fatal(err)
	}
	snap := &checkpoint.Snapshot{
		Strategy: "GDP",
		Seed:     3,
		Devices:  2,
		Model:    buf.Bytes(),
	}
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadCheckpoint(); err != nil {
		t.Fatalf("reload snapshot: %v", err)
	}
	if s.ModelVersion() != 1 {
		t.Fatalf("model version %d after one file reload", s.ModelVersion())
	}
	want, err := s.Predict([]graph.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}

	// A raw nn params file of another model is rejected as malformed.
	buf.Reset()
	if err := f.altModel(5).SaveParams(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadCheckpoint(); !errors.Is(err, checkpoint.ErrMalformed) {
		t.Fatalf("reload raw params: %v, want ErrMalformed", err)
	}

	// So is a corrupt file.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadCheckpoint(); err == nil {
		t.Fatal("reloaded a corrupt checkpoint")
	}

	// Neither failed reload moved the served model.
	got, err := s.Predict([]graph.NodeID{1})
	if err != nil {
		t.Fatalf("server broken after failed reload: %v", err)
	}
	for i := range want[0].Scores {
		if got[0].Scores[i] != want[0].Scores[i] {
			t.Fatal("a failed reload changed the served scores")
		}
	}
	if s.ModelVersion() != 1 {
		t.Fatal("failed reload bumped the model version")
	}
}

func TestReloadAfterCloseFails(t *testing.T) {
	f := newFixture(t)
	s := f.server(t, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(f.altModel(4)); err != ErrServerClosed {
		t.Fatalf("reload after close: %v, want ErrServerClosed", err)
	}
}

// TestPostReloadRequestGetsNewModel: a request sent after Reload returns
// is answered by the new model, even when a worker claimed an earlier
// request before the swap and is still filling its batch. The one
// worker waits for company behind a peer stood in for by the busy
// count, so request A holds its batch open across the Reload; B, sent
// after it, joins that batch, which runs on the generation live when
// it leaves fill. The requests go straight onto the queue, as Predict
// sends them, so the test knows when each has been handed over.
func TestPostReloadRequestGetsNewModel(t *testing.T) {
	f := newFixture(t)
	s := f.server(t, func(c *Config) {
		c.Platform = hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 1)
		c.MaxDelay = 10 * time.Minute
	})
	defer s.Close()

	s.load.Lock()
	s.busy++
	s.load.Unlock()
	a := enqueue(s, 5)
	for len(s.reqs) > 0 { // until the worker has claimed A
		runtime.Gosched()
	}
	// Let the worker settle into fill's wait. The answer checked below
	// does not depend on it; it keeps the test sharp against a pool
	// whose reload leaves a worker of the old generation filling.
	time.Sleep(10 * time.Millisecond)
	m2 := f.altModel(99)
	if err := s.Reload(m2); err != nil {
		t.Fatal(err)
	}
	const v = graph.NodeID(42)
	b := enqueue(s, v)
	s.batchFinished()
	for _, p := range []*pending{a, b} {
		<-p.done
		if p.err != nil || len(p.res) != 1 {
			t.Fatalf("request for node %d: %v, %d results", p.nodes[0], p.err, len(p.res))
		}
	}
	for i, w := range f.directWith(m2, v) {
		if got := b.res[0].Scores[i]; math.Float32bits(got) != math.Float32bits(w) {
			t.Fatalf("request sent after Reload: score %d = %v, the new model predicts %v", i, got, w)
		}
	}
}
