package core

import (
	"net"
	"reflect"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/engine"
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

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("bind coordinator: %v", err)
	}
	stats := make([]engine.EpochStats, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			a, err := New(testTask(t, "PS", world, 32))
			if err != nil {
				errs[r] = err
				return
			}
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
			e, err := a.BuildEngineDistributed(strategy.SNP, tr, r)
			if err != nil {
				errs[r] = err
				return
			}
			stats[r] = e.RunEpoch()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
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
			a.Task().CacheBytes, a.Task().FeatDim, devices, false, Plan{Kind: strategy.SNP})
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
