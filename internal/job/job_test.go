package job

import (
	"flag"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// TestDefaultFlagsTrainToPinnedChecksum: the task built from the
// shared flags' defaults — with the two arguments aptrun adds, seed 7
// and homophily 6 — plans and trains one epoch to the parameters the
// hand-assembled task of aptrun did before this package existed
// (`aptrun -epochs 1` at commit 778dc31, FNV-64a over the parameters'
// f32 bit patterns), pinned at its single-core value: the kernels
// split no sum across workers, so every core count gives it. A
// drifted default, fanout, cache budget or model closure moves the
// value.
func TestDefaultFlagsTrainToPinnedChecksum(t *testing.T) {
	fs := flag.NewFlagSet("aptrun", flag.ContinueOnError)
	spec := Flags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	_, task, err := spec.Build(true, 7, func(s *dataset.Spec) { s.HomophilyDegree = 6 })
	if err != nil {
		t.Fatal(err)
	}
	apt, err := core.New(task)
	if err != nil {
		t.Fatal(err)
	}
	res, err := apt.Train(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Model.Checksum(), uint64(0x51ca4ce089578c8d); got != want {
		t.Fatalf("params fnv64a %016x, want %016x", got, want)
	}
}

// TestRejectsEmptyModelShapes: a hidden width or, for GAT, a head
// count below 1 builds a model whose first layer holds no parameter
// values; core.New refuses the task with an error naming that layer.
// A one-layer model uses neither setting, so it still builds.
func TestRejectsEmptyModelShapes(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		want string // "" when the task must build
	}{
		{Spec{Data: "PS", Scale: 0.02, Model: "gat", Hidden: 8, Heads: 0, Layers: 2, Fanout: 5, Devices: 2}, "GAT layer 0 has no parameter values"},
		{Spec{Data: "PS", Scale: 0.02, Hidden: 0, Layers: 2, Fanout: 5, Devices: 2}, "GraphSAGE layer 0 has no parameter values"},
		{Spec{Data: "PS", Scale: 0.02, Model: "gat", Hidden: 0, Heads: 4, Layers: 2, Fanout: 5, Devices: 2}, "GAT layer 0 has no parameter values"},
		{Spec{Data: "PS", Scale: 0.02, Hidden: 0, Layers: 1, Fanout: 5, Devices: 2}, ""},
	} {
		_, task, err := c.spec.Build(false, 7, nil)
		if err != nil {
			t.Fatalf("%+v: Build: %v", c.spec, err)
		}
		_, err = core.New(task)
		if c.want == "" && err != nil {
			t.Errorf("%+v: New = %v, want a task that builds", c.spec, err)
		}
		if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%+v: New = %v, want an error containing %q", c.spec, err, c.want)
		}
	}
}

// TestRejectsNegativeWidths: a negative hidden width, head count or
// batch size is an error from Build, before any model is made; a
// negative width used to panic in tensor.New ("makeslice: len out of
// range") when core.New first called the model closure.
func TestRejectsNegativeWidths(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{Spec{Data: "PS", Scale: 0.02, Hidden: -3, Layers: 2, Fanout: 5, Devices: 2}, "hidden -3"},
		{Spec{Data: "PS", Scale: 0.02, Model: "gat", Hidden: 8, Heads: -2, Layers: 2, Fanout: 5, Devices: 2}, "heads -2"},
		{Spec{Data: "PS", Scale: 0.02, Hidden: 8, Layers: 2, Fanout: 5, Batch: -5, Devices: 2}, "batch -5"},
	} {
		if _, _, err := c.spec.Build(false, 7, nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: Build = %v, want an error containing %q", c.spec, err, c.want)
		}
	}
}

// TestAccountingModeAndRejects: without features the task carries no
// payload and no optimizer; an unknown model or a non-positive layer
// count is an error, not a silent GraphSAGE.
func TestAccountingModeAndRejects(t *testing.T) {
	spec := Spec{Data: "PS", Scale: 0.02, Hidden: 8, Layers: 2, Fanout: 5, Devices: 2}
	ds, task, err := spec.Build(false, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if task.Feats != nil || task.Labels != nil || task.NewOptimizer != nil {
		t.Fatal("accounting-mode task carries features, labels or an optimizer")
	}
	if task.BatchSize != 64 || task.CacheBytes != ds.CacheBytesFraction(0.08) || len(task.Sampling.Fanouts) != 2 {
		t.Fatalf("defaults: batch %d cache %d fanouts %v", task.BatchSize, task.CacheBytes, task.Sampling.Fanouts)
	}
	for _, bad := range []Spec{
		{Data: "PS", Scale: 0.02, Model: "gcn", Layers: 2},
		{Data: "PS", Scale: 0.02, Layers: 0},
		{Data: "nope", Scale: 0.02, Layers: 2},
	} {
		if _, _, err := bad.Build(false, 7, nil); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}

// TestCheckRefusesFlags: Check refuses fewer than one device and a
// learning rate that is not finite and positive at the float32
// precision Adam runs with, and passes the shared flags' defaults.
func TestCheckRefusesFlags(t *testing.T) {
	fs := flag.NewFlagSet("aptrun", flag.ContinueOnError)
	def := Flags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := def.Check(); err != nil {
		t.Fatalf("defaults refused: %v", err)
	}
	for _, c := range []struct {
		devices int
		lr      float64
		want    string
	}{
		{0, 0.01, "-devices 0: need at least one device"},
		{-2, 0.01, "-devices -2"},
		{4, 0, "-lr 0"},
		{4, -1, "-lr -1"},
		{4, math.NaN(), "-lr NaN"},
		{4, math.Inf(1), "-lr +Inf"},
		{4, 1e300, "-lr 1e+300"}, // +Inf at float32
		{4, 1e-50, "-lr 1e-50"},  // 0 at float32
	} {
		s := *def
		s.Devices, s.LR = c.devices, c.lr
		if err := s.Check(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Devices %d LR %v: Check = %v, want an error containing %q", c.devices, c.lr, err, c.want)
		}
	}
}
