package engine

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/nn"
	"repro/internal/strategy"
)

// The other engine tests compare runs of one build against each other
// (strategy vs strategy, TCP vs channels, resume vs straight run), so a
// change that moves every multi-device run the same way passes them
// all. This golden pins the layer-1 results of one build against the
// next: trained parameters and losses bit for bit, and the accounting
// counters and simulated stage times EXPERIMENTS.md's tables are made
// of. Regenerate with `go test ./internal/engine -run TestLayer1Golden
// -update` only when a change is meant to move them, and say so.

// layer1Golden is one (strategy, model) cell of the golden file.
type layer1Golden struct {
	// Params is the fnv64a of every replica's parameters (float32 bits,
	// device then parameter order) after two real-mode epochs; Loss
	// holds the bits of each epoch's MeanLoss.
	Params string
	Loss   [2]string
	// Ints is every integer field of one accounting epoch's Totals,
	// plus the device memory still allocated when it ended.
	Ints map[string]int64
	// StageSec is that epoch's sample/build/load/train/shuffle seconds.
	StageSec [5]float64
}

const layer1GoldenPath = "testdata/layer1_golden.json"

// collectInts flattens every integer field (and array element) under v
// into out, keyed by its field path.
func collectInts(prefix string, v reflect.Value, out map[string]int64) {
	switch v.Kind() {
	case reflect.Int, reflect.Int32, reflect.Int64:
		out[prefix] = v.Int()
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			collectInts(prefix+"."+v.Type().Field(i).Name, v.Field(i), out)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			collectInts(fmt.Sprintf("%s[%d]", prefix, i), v.Index(i), out)
		}
	}
}

// layer1Cells trains and accounts every (strategy, model) cell of the
// golden file.
func layer1Cells(t *testing.T) map[string]layer1Golden {
	got := map[string]layer1Golden{}
	for _, k := range strategy.Core {
		f := newFixture(t, 4, 400)
		// The fixture's multilevel partition follows its four planted
		// communities and cuts almost nothing; striping the nodes makes
		// every rank exchange rows with every peer in every step.
		for v := range f.assign {
			f.assign[v] = int32(v % 4)
		}
		models := []struct {
			name string
			new  func() *nn.Model
		}{
			{"GraphSAGE", func() *nn.Model { return nn.NewGraphSAGE(f.dim, 12, f.classes, 2) }},
			{"GAT", func() *nn.Model { return nn.NewGAT(f.dim, 4, 2, f.classes, 2) }},
		}
		for _, m := range models {
			var cell layer1Golden

			// Real mode over a store with an int8 warm band, so the
			// quantized gather kernels are pinned along with the fp32 ones.
			cfg := f.config(k, m.new, nil, []int{5, 5})
			cfg.Store = f.newTieredStore(40, 80, policyFor(k))
			e, err := New(cfg)
			if err != nil {
				t.Fatalf("%v/%s: %v", k, m.name, err)
			}
			for ep := range cell.Loss {
				cell.Loss[ep] = fmt.Sprintf("%016x", math.Float64bits(e.RunEpoch().MeanLoss))
			}
			h := fnv.New64a()
			var buf [4]byte
			for _, d := range e.Ranks() {
				for _, p := range e.Model(d).Params() {
					for _, v := range p.W.Data {
						binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
						h.Write(buf[:])
					}
				}
			}
			cell.Params = fmt.Sprintf("%016x", h.Sum64())

			acc := f.config(k, m.new, nil, []int{5, 5})
			acc.Store.Feats = nil
			acc.Labels = nil
			ea, err := New(acc)
			if err != nil {
				t.Fatalf("%v/%s accounting: %v", k, m.name, err)
			}
			st := ea.RunEpoch()
			cell.Ints = map[string]int64{}
			collectInts("Totals", reflect.ValueOf(st.Totals), cell.Ints)
			for _, d := range ea.Group.Devices {
				cell.Ints["MemUsedAfter"] += d.MemUsed()
			}
			cell.StageSec = [5]float64{st.SampleSec, st.BuildSec, st.LoadSec, st.TrainSec, st.ShuffleSec}
			got[fmt.Sprintf("%v/%s", k, m.name)] = cell
		}
	}
	return got
}

func TestLayer1Golden(t *testing.T) {
	// Architectures that fuse multiply-add round differently, so the
	// bit-exact half is pinned on amd64. The parallel kernels split only
	// their outputs, so it holds at every worker count: the cells run at
	// GOMAXPROCS 1, 2, 3 and 8 against the one golden.
	bitExact := runtime.GOARCH == "amd64"
	if *updateGolden {
		data, err := json.MarshalIndent(layer1Cells(t), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(layer1GoldenPath), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(filepath.FromSlash(layer1GoldenPath))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]layer1Golden{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			compareLayer1Golden(t, layer1Cells(t), want, bitExact)
		})
	}
}

// compareLayer1Golden reports every cell of got that differs from want.
func compareLayer1Golden(t *testing.T, got, want map[string]layer1Golden, bitExact bool) {
	if len(want) != len(got) {
		t.Errorf("golden has %d cells, run produced %d", len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: missing from golden file", name)
			continue
		}
		if bitExact {
			if g.Loss != w.Loss {
				t.Errorf("%s: MeanLoss bits %v, want %v", name, g.Loss, w.Loss)
			}
			if g.Params != w.Params {
				t.Errorf("%s: params hash %s, want %s", name, g.Params, w.Params)
			}
		}
		if !reflect.DeepEqual(g.Ints, w.Ints) {
			for key, v := range g.Ints {
				if w.Ints[key] != v {
					t.Errorf("%s: %s = %d, want %d", name, key, v, w.Ints[key])
				}
			}
			if len(g.Ints) != len(w.Ints) {
				t.Errorf("%s: %d integer fields, golden has %d", name, len(g.Ints), len(w.Ints))
			}
		}
		for i, stage := range []string{"sample", "build", "load", "train", "shuffle"} {
			if diff := math.Abs(g.StageSec[i] - w.StageSec[i]); diff > 1e-9*math.Abs(w.StageSec[i]) {
				t.Errorf("%s: %s seconds %v, want %v", name, stage, g.StageSec[i], w.StageSec[i])
			}
		}
	}
}
