package nn

import (
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/sample"
	"repro/internal/tensor"
)

// inferEnv builds a small graph, sampled mini-batch, and input features
// for forward-pass tests.
func inferEnv(t testing.TB, cfg sample.Config) (*sample.MiniBatch, *tensor.Matrix, int) {
	t.Helper()
	g := graph.PreferentialAttachment(graph.GenerateConfig{NumNodes: 400, AvgDegree: 8, Seed: 3})
	smp := sample.NewSampler(g, cfg, graph.NewRNG(11))
	seeds := []graph.NodeID{1, 7, 42, 99, 100, 250, 399}
	mb := smp.Sample(seeds)
	inDim := 24
	rng := graph.NewRNG(5)
	x := tensor.New(mb.Layer1().NumSrc(), inDim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat32()
	}
	return mb, x, inDim
}

// TestPredictMatchesForward checks the serving path's logits
// (PredictGathered) are bit-identical to the training forward pass for
// both model families.
func TestPredictMatchesForward(t *testing.T) {
	cases := []struct {
		name  string
		build func(inDim int) *Model
		smp   sample.Config
	}{
		{"sage", func(in int) *Model { return NewGraphSAGE(in, 16, 5, 2) },
			sample.Config{Fanouts: []int{5, 5}}},
		{"gat", func(in int) *Model { return NewGAT(in, 8, 2, 5, 2) },
			sample.Config{Fanouts: []int{5, 5}, IncludeDstInSrc: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mb, x, inDim := inferEnv(t, tc.smp)
			m := tc.build(inDim)
			m.Init(graph.NewRNG(7))
			st := forward(m, mb, x)
			logits := m.PredictGathered(mb, tensor.FS(x), tensor.Iota(x.Rows))
			if logits.Rows != len(mb.Seeds) {
				t.Fatalf("predict rows = %d, want %d", logits.Rows, len(mb.Seeds))
			}
			if d := st.Logits.MaxAbsDiff(logits); d != 0 {
				t.Fatalf("predict differs from forward by %g", d)
			}
			tensor.Put(logits)
		})
	}
}

// TestPredictConcurrent runs PredictGathered from many goroutines against one
// shared model; the race detector guards the read-only contract.
func TestPredictConcurrent(t *testing.T) {
	mb, x, inDim := inferEnv(t, sample.Config{Fanouts: []int{4, 4}})
	m := NewGraphSAGE(inDim, 16, 5, 2)
	m.Init(graph.NewRNG(7))
	predict := func() *tensor.Matrix { return m.PredictGathered(mb, tensor.FS(x), tensor.Iota(x.Rows)) }
	want := predict()
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 20; j++ {
				got := predict()
				d := want.MaxAbsDiff(got)
				tensor.Put(got)
				if d != 0 {
					done <- nil
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	tensor.Put(want)
}

// TestPredictGatheredKeepsNoIntermediates bounds the heap bytes one
// warm-pool PredictGathered call allocates at half of what the training
// forward allocates on the same batch. Serving runs the training
// forward, so it is only this cheap while each layer's context goes
// back to the pool — GAT's per-head projections above all, which alone
// would take it past the bound.
func TestPredictGatheredKeepsNoIntermediates(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	prev := runtime.GOMAXPROCS(1) // the inline kernel path; spawning the fan-out's goroutines allocates
	defer runtime.GOMAXPROCS(prev)
	bytesPerOp := func(f func()) float64 {
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	cases := []struct {
		name  string
		build func(inDim int) *Model
		smp   sample.Config
	}{
		{"sage", func(in int) *Model { return NewGraphSAGE(in, 16, 5, 2) },
			sample.Config{Fanouts: []int{5, 5}}},
		{"gat", func(in int) *Model { return NewGAT(in, 8, 2, 5, 2) },
			sample.Config{Fanouts: []int{5, 5}, IncludeDstInSrc: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mb, x, inDim := inferEnv(t, tc.smp)
			m := tc.build(inDim)
			m.Init(graph.NewRNG(7))
			idx := make([]int32, x.Rows) // x is the feature store, one row per source
			for i := range idx {
				idx[i] = int32(i)
			}
			predict := func() { tensor.Put(m.PredictGathered(mb, tensor.FS(x), idx)) }
			predict() // warm the pools
			train := bytesPerOp(func() { m.ForwardGathered(mb, tensor.FS(x), idx) })
			if got := bytesPerOp(predict); got > train/2 {
				t.Fatalf("PredictGathered allocates %.0f B/op, training forward %.0f: want at most half", got, train)
			}
		})
	}
}

// BenchmarkModelPredict measures the serving forward; with the tensor
// pool warm it allocates only the layer contexts' own structs, unlike
// the training forward, whose activations stay with its caller.
func BenchmarkModelPredict(b *testing.B) {
	mb, x, inDim := inferEnv(b, sample.Config{Fanouts: []int{10, 10}})
	m := NewGraphSAGE(inDim, 32, 8, 2)
	m.Init(graph.NewRNG(7))
	idx := tensor.Iota(x.Rows)
	tensor.Put(m.PredictGathered(mb, tensor.FS(x), idx)) // warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Put(m.PredictGathered(mb, tensor.FS(x), idx))
	}
}

// BenchmarkModelForwardTraining is the training-forward baseline for
// BenchmarkModelPredict's allocs/op comparison.
func BenchmarkModelForwardTraining(b *testing.B) {
	mb, x, inDim := inferEnv(b, sample.Config{Fanouts: []int{10, 10}})
	m := NewGraphSAGE(inDim, 32, 8, 2)
	m.Init(graph.NewRNG(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := forward(m, mb, x)
		_ = st
	}
}
