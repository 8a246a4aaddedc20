package engine

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/strategy"
	"repro/internal/transport"
)

// These tests pin the tentpole acceptance bar of the distributed
// runtime: real-mode training over TCP on localhost is BIT-IDENTICAL
// to the in-process engine for all four strategies, at 2 and 4 ranks.
// Each rank is modeled as a separate process would be — its own
// fixture (graph, features, partition), its own store, its own engine
// instance, sharing nothing with its peers except real sockets — and
// drives only its own rank. Bit-identity then follows from the
// engine's determinism plus the wire moving exact f32/i32 values.

// trainDistributed runs world rank-engines over loopback TCP for the
// given strategy and returns them (engines[r] ran rank r).
func trainDistributed(t *testing.T, world int, k strategy.Kind, fanouts []int, epochs int, pipelined bool) []*Engine {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("bind coordinator: %v", err)
	}
	engines := make([]*Engine, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Each rank rebuilds the whole task from the same seeds — the
			// distributed contract: identical Config in every process.
			f := newFixture(t, world, 160)
			plan := sample.SplitEven(f.seeds, world, graph.NewRNG(3))
			opts := transport.TCPOptions{Rank: r, World: world, Coord: ln.Addr().String()}
			if r == 0 {
				opts.CoordListener = ln
			}
			tr, err := transport.NewTCP(opts)
			if err != nil {
				errs[r] = fmt.Errorf("bootstrap: %w", err)
				return
			}
			cfg := f.config(k, func() *nn.Model {
				return nn.NewGraphSAGE(f.dim, 8, f.classes, 2)
			}, plan, fanouts)
			cfg.Transport = tr
			cfg.Pipeline = pipelined
			e, err := New(cfg)
			if err != nil {
				errs[r] = fmt.Errorf("engine: %w", err)
				tr.Close()
				return
			}
			for ep := 0; ep < epochs; ep++ {
				e.RunEpoch()
			}
			if err := tr.Close(); err != nil {
				errs[r] = fmt.Errorf("close: %w", err)
				return
			}
			engines[r] = e
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return engines
}

func TestDistributedTCPBitIdentical(t *testing.T) {
	const epochs = 2
	fanouts := []int{4, 4} // sampled fanout: exercises the per-rank RNG streams too
	for _, world := range []int{2, 4} {
		for _, k := range []strategy.Kind{strategy.GDP, strategy.NFP, strategy.SNP, strategy.DNP} {
			// The prefetch-overlapped epoch loop uses the same collectives
			// in the same order, so the pipelined TCP engines must match
			// the synchronous in-process baseline bit for bit too.
			for _, pipelined := range []bool{false, true} {
				name := fmt.Sprintf("world%d/%v", world, k)
				if pipelined {
					name += "/pipelined"
				}
				t.Run(name, func(t *testing.T) {
					// In-process baseline: same task, all workers as goroutines
					// over channel transport, always synchronous.
					f := newFixture(t, world, 160)
					plan := sample.SplitEven(f.seeds, world, graph.NewRNG(3))
					base, err := New(f.config(k, func() *nn.Model {
						return nn.NewGraphSAGE(f.dim, 8, f.classes, 2)
					}, plan, fanouts))
					if err != nil {
						t.Fatalf("baseline engine: %v", err)
					}
					var baseLoss float64
					for ep := 0; ep < epochs; ep++ {
						baseLoss = base.RunEpoch().Totals.LossSum
					}

					engines := trainDistributed(t, world, k, fanouts, epochs, pipelined)
					// One rank shape: the in-process engine drives every rank,
					// a TCP rank engine exactly its own.
					if got := base.Ranks(); len(got) != world {
						t.Fatalf("in-process engine drives ranks %v, want all %d", got, world)
					}
					for r := 0; r < world; r++ {
						if got := engines[r].Ranks(); !reflect.DeepEqual(got, []int{r}) {
							t.Fatalf("rank %d engine drives ranks %v, want [%d]", r, got, r)
						}
						requireParamsExact(t, fmt.Sprintf("rank %d vs in-process", r),
							engines[r].Model(r).Params(), base.Model(0).Params())
					}
					// Replicas across rank processes must agree with each other
					// too.
					for r := 1; r < world; r++ {
						requireParamsExact(t, fmt.Sprintf("rank %d vs rank 0", r),
							engines[r].Model(r).Params(), engines[0].Model(0).Params())
					}
					if baseLoss == 0 {
						t.Fatal("baseline epoch loss is zero; test is vacuous")
					}
				})
			}
		}
	}
}

func TestDistributedConfigValidation(t *testing.T) {
	f := newFixture(t, 2, 160)
	plan := sample.SplitEven(f.seeds, 2, graph.NewRNG(3))
	mk := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 8, f.classes, 2) }

	cfg := f.config(strategy.GDP, mk, plan, []int{4, 4})
	cfg.Transport = comm.NewChanTransport(3)
	if _, err := New(cfg); err == nil {
		t.Error("transport world 3 accepted for 2 devices")
	}
}
