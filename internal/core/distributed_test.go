package core

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/strategy"
	"repro/internal/transport"
)

// TestBuildEngineDistributedMatchesInProcess models a 2-rank job the
// way separate OS processes would run it: each rank constructs its own
// APT from the identical task, builds its engine with
// BuildEngineDistributed over its own loopback TCP transport, and
// shares nothing with its peer except the sockets. The accounting epoch
// is deterministic, so rank r's counters must equal worker r's counters
// from a plain in-process run of the same task.
func TestBuildEngineDistributedMatchesInProcess(t *testing.T) {
	const world = 2
	base, err := New(testTask(t, "PS", world, 32))
	if err != nil {
		t.Fatal(err)
	}
	be, err := base.BuildEngine(strategy.SNP)
	if err != nil {
		t.Fatal(err)
	}
	baseStats := be.RunEpoch()

	stats := make([]engine.EpochStats, world)
	loopbackRanks(t, world, func(r int, tr comm.Transport) error {
		a, err := New(testTask(t, "PS", world, 32))
		if err != nil {
			return err
		}
		e, err := a.BuildEngineDistributed(strategy.SNP, tr, r)
		if err != nil {
			return err
		}
		stats[r] = e.RunEpoch()
		return nil
	})
	for r := 0; r < world; r++ {
		// A rank process runs only its own worker.
		if n := len(stats[r].PerDevice); n != 1 {
			t.Fatalf("rank %d reports %d workers, want 1", r, n)
		}
		if got, want := stats[r].PerDevice[0], baseStats.PerDevice[r]; !reflect.DeepEqual(got, want) {
			t.Errorf("rank %d counters diverge from in-process worker %d:\n got  %+v\n want %+v", r, r, got, want)
		}
	}
}

// loopbackRanks runs fn once per rank of a world-rank job, each rank on
// its own goroutine over its own loopback TCP transport — the way
// separate OS processes would run it — and fails the test on any
// rank's error.
func loopbackRanks(t *testing.T, world int, fn func(r int, tr comm.Transport) error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("bind coordinator: %v", err)
	}
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			opts := transport.TCPOptions{Rank: r, World: world, Coord: ln.Addr().String()}
			if r == 0 {
				opts.CoordListener = ln
			}
			tr, err := transport.NewTCP(opts)
			if err != nil {
				errs[r] = err
				return
			}
			defer tr.Close()
			errs[r] = fn(r, tr)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestRankTrainsThroughTheOneLoop runs one rank of a 2-process job per
// goroutine through core's own epoch loop (Transport set, TrainWith)
// with a checkpoint directory. Every rank must end on the in-process
// run's parameters and see epochs 1..3 in OnEpoch; at every epoch
// boundary rank 0's rolling snapshot equals the in-process run's byte
// for byte, and rank 1 writes none; and adaptive training, which needs
// the whole job's epoch stats, is refused on a rank before it plans or
// touches the wire.
func TestRankTrainsThroughTheOneLoop(t *testing.T) {
	const world, epochs = 2, 3
	// rolling reads dir's rolling snapshot. OnEpoch runs after the
	// boundary's checkpoint, so there it reads that epoch's snapshot.
	rolling := func(dir string) []byte {
		b, _ := os.ReadFile(filepath.Join(dir, checkpoint.DefaultName))
		return b
	}
	wantDir := t.TempDir()
	base, err := New(realResumeTask(t, world, false))
	if err != nil {
		t.Fatal(err)
	}
	var wantSnaps [][]byte
	base.CheckpointDir = wantDir
	base.OnEpoch = func(int, engine.EpochStats, *nn.Model) { wantSnaps = append(wantSnaps, rolling(wantDir)) }
	baseRes, err := base.TrainWith(strategy.SNP, epochs)
	if err != nil {
		t.Fatal(err)
	}
	want := paramChecksum(baseRes.Model)

	dirs := []string{t.TempDir(), t.TempDir()}
	sums := make([]uint64, world)
	seen := make([][]int, world)
	snaps := make([][][]byte, world)
	loopbackRanks(t, world, func(r int, tr comm.Transport) error {
		a, err := New(realResumeTask(t, world, false))
		if err != nil {
			return err
		}
		a.Transport = tr
		a.CheckpointDir = dirs[r]
		a.OnEpoch = func(ep int, _ engine.EpochStats, _ *nn.Model) {
			seen[r] = append(seen[r], ep)
			snaps[r] = append(snaps[r], rolling(dirs[r]))
		}
		res, err := a.TrainWith(strategy.SNP, epochs)
		if err != nil {
			return err
		}
		sums[r] = paramChecksum(res.Model)
		refused := make(chan error, 1)
		go func() {
			_, err := a.TrainAdaptive(epochs + 1)
			refused <- err
		}()
		select {
		case err := <-refused:
			if err == nil {
				return fmt.Errorf("TrainAdaptive accepted a transport hosting one rank of %d", world)
			}
		case <-time.After(30 * time.Second):
			return fmt.Errorf("TrainAdaptive did not return within 30s")
		}
		return nil
	})

	for r := 0; r < world; r++ {
		if sums[r] != want {
			t.Errorf("rank %d params %016x != in-process %016x", r, sums[r], want)
		}
		if !slices.Equal(seen[r], []int{1, 2, 3}) {
			t.Errorf("rank %d OnEpoch saw %v, want [1 2 3]", r, seen[r])
		}
	}
	if len(wantSnaps) != epochs || len(snaps[0]) != epochs {
		t.Fatalf("recorded %d in-process and %d rank-0 snapshots, want %d each", len(wantSnaps), len(snaps[0]), epochs)
	}
	for i := range wantSnaps {
		snap, err := checkpoint.Decode(wantSnaps[i])
		if err != nil || snap.EpochsDone != i+1 {
			t.Fatalf("in-process rolling snapshot after epoch %d: err %v, want one from that epoch", i+1, err)
		}
		if !bytes.Equal(snaps[0][i], wantSnaps[i]) {
			t.Errorf("rank 0's snapshot at epoch %d differs from the in-process run's", i+1)
		}
	}
	if names, err := os.ReadDir(dirs[1]); err != nil || len(names) != 0 {
		t.Errorf("rank 1 wrote %d file(s) (err %v), want none", len(names), err)
	}
}

func TestBuildEngineDistributedValidation(t *testing.T) {
	a, err := New(testTask(t, "PS", 2, 32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.BuildEngineDistributed(strategy.GDP, comm.NewChanTransport(3), 0); err == nil {
		t.Error("transport world 3 accepted for a 2-device task")
	}
	if _, err := a.BuildEngineDistributed(strategy.GDP, comm.NewChanTransport(2), 5); err == nil {
		t.Error("local rank 5 accepted for world 2")
	}
	if _, err := a.BuildEngineDistributed(strategy.GDP, comm.NewChanTransport(2), 2); err == nil {
		t.Error("local rank 2, which the transport does not drive, accepted for world 2")
	}
}

// TestCalibrateTransport checks the measured-transport feedback path:
// a cost model over a measured wire profile (Task.ProfileOverride, as
// aptrun -rank -measure-wire sets it) costs collectives at the
// measured wire speed, so a drastically slower wire must raise every
// communication-bound plan cost.
func TestCalibrateTransport(t *testing.T) {
	a, err := New(testTask(t, "PS", 2, 32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Plan(); err != nil {
		t.Fatal(err)
	}
	devices := a.Task().Platform.NumDevices()
	snpCost := func(p *comm.Profile) float64 {
		cm := &CostModel{Profile: p, Devices: devices, IncludeTrain: true}
		rp := NewReplanner(cm, a.DryRunStats().PerStrategy, a.DryRunStats().Freq,
			a.Task().CacheBytes, a.Task().FeatDim, devices, a.Task().Int8CacheFrac, Plan{Kind: strategy.SNP})
		return rp.planCost(Plan{Kind: strategy.SNP})
	}

	// A measured profile as aptrun -measure-wire derives it: WireStats
	// overlaid on the simulated base, here pinned to a pathologically
	// slow wire so the cost shift is unambiguous.
	slow := transport.WireStats{
		AllToAllBps: 1e3, AllGatherBps: 1e3, AllReduceBps: 1e3,
		AllToAllCallSec: 1e-3, AllGatherCallSec: 1e-3,
	}.ApplyTo(a.Profile())
	if before, after := snpCost(a.Profile()), snpCost(slow); after <= before {
		t.Fatalf("slow wire did not raise SNP plan cost: before %v, after %v", before, after)
	}
}
