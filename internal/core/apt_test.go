package core

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/sample"
	"repro/internal/strategy"
	"repro/internal/tensor"
)

// testTask builds a small accounting-mode task over a dataset preset.
func testTask(t testing.TB, abbr string, devices int, hidden int) Task {
	t.Helper()
	spec, err := dataset.ByAbbr(abbr, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.Build(spec, false)
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, devices)
	return Task{
		Graph:   d.Graph,
		FeatDim: spec.FeatDim,
		Seeds:   d.TrainSeeds,
		NewModel: func() *nn.Model {
			return nn.NewGraphSAGE(spec.FeatDim, hidden, spec.Classes, 3)
		},
		Sampling:   sample.Config{Fanouts: []int{10, 10, 10}},
		BatchSize:  64,
		Platform:   p,
		CacheBytes: d.CacheBytesFraction(0.08), // ~paper 4GB/52.9GB
		Seed:       7,
	}
}

func TestTaskValidation(t *testing.T) {
	task := testTask(t, "PS", 4, 32)
	task.NewModel = nil
	if _, err := New(task); err == nil {
		t.Error("accepted task without model")
	}
	task2 := testTask(t, "PS", 4, 32)
	task2.Sampling.Fanouts = []int{10} // 1 fanout, 3-layer model
	if _, err := New(task2); err == nil {
		t.Error("accepted fanout/layer mismatch")
	}
	task3 := testTask(t, "PS", 4, 32)
	task3.FeatDim = 999
	if _, err := New(task3); err == nil {
		t.Error("accepted feature-dim mismatch")
	}
}

// TestNewRejectsEmptyModelLayers: a GAT without attention heads (whose
// dimensions are undefined) and a GraphSAGE of hidden width 0 (whose
// parameters hold no values) are errors naming the empty layer, not a
// panic or a run that trains nothing.
func TestNewRejectsEmptyModelLayers(t *testing.T) {
	for _, c := range []struct {
		model func(in, classes int) *nn.Model
		want  string
	}{
		{func(in, classes int) *nn.Model { return nn.NewGAT(in, 8, 0, classes, 3) }, "GAT layer 0 has no parameter values"},
		{func(in, classes int) *nn.Model { return nn.NewGraphSAGE(in, 0, classes, 3) }, "GraphSAGE layer 0 has no parameter values"},
	} {
		task := testTask(t, "PS", 2, 16)
		in, classes := task.FeatDim, task.NewModel().Layers[2].OutDim()
		task.NewModel = func() *nn.Model { return c.model(in, classes) }
		if _, err := New(task); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("New = %v, want an error containing %q", err, c.want)
		}
	}
}

// TestNewRefusesDataThatDoNotFitTheGraph: node data of the wrong
// length (or a matrix whose data are short of its shape), a label
// outside the model's classes, a seed that is not a node, a negative
// fanout or cache budget are errors naming the field.
// Each used to be accepted: the seed, label and short-matrix rows
// panicked mid-run, the re-sliced matrix trained on rows past its
// shape, the negative fanout trained to loss ln(classes), learning
// nothing.
func TestNewRefusesDataThatDoNotFitTheGraph(t *testing.T) {
	spec, err := dataset.ByAbbr("PS", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.Build(spec, true)
	base := Task{
		Graph:  d.Graph,
		Feats:  d.Feats,
		Labels: d.Labels,
		Seeds:  d.TrainSeeds,
		NewModel: func() *nn.Model {
			return nn.NewGraphSAGE(spec.FeatDim, 8, spec.Classes, 2)
		},
		Sampling:  sample.Config{Fanouts: []int{5, 5}},
		BatchSize: 64,
		Platform:  hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 2),
		Seed:      7,
	}
	if _, err := New(base); err != nil {
		t.Fatalf("the valid task is refused: %v", err)
	}
	n, cols := d.Graph.NumNodes(), d.Feats.Cols
	withLabel := func(c int32) []int32 {
		l := slices.Clone(d.Labels)
		l[3] = c
		return l
	}
	for _, c := range []struct {
		name string
		edit func(*Task)
		want string
	}{
		{"short feats", func(k *Task) { k.Feats = &tensor.Matrix{Rows: 10, Cols: cols, Data: make([]float32, 10*cols)} }, "Feats is 10 x"},
		{"re-sliced feats", func(k *Task) { k.Feats = &tensor.Matrix{Rows: 10, Cols: cols, Data: d.Feats.Data[:10*cols]} }, "Feats is 10 x"},
		{"feats short of their shape", func(k *Task) { k.Feats = &tensor.Matrix{Rows: n, Cols: cols, Data: d.Feats.Data[:cols]} }, "with " + strconv.Itoa(cols) + " values"},
		{"short labels", func(k *Task) { k.Labels = d.Labels[:n-1] }, "Labels has " + strconv.Itoa(n-1) + " entries"},
		{"label too large", func(k *Task) { k.Labels = withLabel(99) }, "Labels[3] = 99"},
		{"negative label", func(k *Task) { k.Labels = withLabel(-1) }, "Labels[3] = -1"},
		{"seed past the nodes", func(k *Task) { k.Seeds = []graph.NodeID{0, graph.NodeID(n + 5)} }, "Seeds[1] = " + strconv.Itoa(n+5)},
		{"negative seed", func(k *Task) { k.Seeds = []graph.NodeID{-1} }, "Seeds[0] = -1"},
		{"negative fanout", func(k *Task) { k.Sampling.Fanouts = []int{5, -1} }, "Sampling.Fanouts[1] = -1"},
		{"negative cache", func(k *Task) { k.CacheBytes = -1 }, "CacheBytes -1"},
		{"negative CPU cache", func(k *Task) { k.CPUCacheBytes = -1 }, "CPUCacheBytes -1"},
	} {
		task := base
		c.edit(&task)
		if _, err := New(task); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: New = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestPrepareProducesProfileAndPartition(t *testing.T) {
	a, err := New(testTask(t, "PS", 4, 32))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Prepare(); err != nil {
		t.Fatal(err)
	}
	if a.Profile() == nil || a.Profile().AllToAllBps <= 0 {
		t.Error("no operator profile measured")
	}
	part := a.Partition()
	if part == nil || part.NumParts != 4 {
		t.Fatal("partitioning missing")
	}
	if err := part.Validate(true); err != nil {
		t.Error(err)
	}
}

// TestPrepareRejectsMismatchedPartition hands Prepare supplied
// partitions that do not fit a 2-device PS task. Each used to panic
// in the store or the cache policy during Plan's dry-run, or fail only
// in engine.New; Prepare must reject it with ErrPartitionMismatch,
// naming both numbers. Fewer parts than devices stays accepted.
func TestPrepareRejectsMismatchedPartition(t *testing.T) {
	task := testTask(t, "PS", 2, 16)
	n := task.Graph.NumNodes()
	assign := partition.Random(task.Graph, 2, 1).Assign
	for _, c := range []struct {
		name string
		part *partition.Partitioning
		nums []int // both numbers the error must name; none: accepted
	}{
		{"assign 3 too long", &partition.Partitioning{Assign: append(slices.Clone(assign), 0, 1, 0), NumParts: 2}, []int{n + 3, n}},
		{"4 parts on 2 devices", &partition.Partitioning{Assign: assign, NumParts: 4}, []int{4, 2}},
		{"assign 5 too short", &partition.Partitioning{Assign: assign[:n-5], NumParts: 2}, []int{n - 5, n}},
		{"1 part on 2 devices", &partition.Partitioning{Assign: make([]int32, n), NumParts: 1}, nil},
	} {
		task := task
		task.Partition = c.part
		a, err := New(task)
		if err != nil {
			t.Fatal(err)
		}
		err = a.Prepare()
		if c.nums == nil {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
			continue
		}
		if !errors.Is(err, ErrPartitionMismatch) {
			t.Errorf("%s: Prepare returned %v, want ErrPartitionMismatch", c.name, err)
			continue
		}
		for _, x := range c.nums {
			if !strings.Contains(err.Error(), strconv.Itoa(x)) {
				t.Errorf("%s: error %q does not name %d", c.name, err, x)
			}
		}
		if _, err := a.Plan(); !errors.Is(err, ErrPartitionMismatch) {
			t.Errorf("%s: Plan returned %v, want ErrPartitionMismatch", c.name, err)
		}
	}
}

func TestPlanSelectsAndEstimates(t *testing.T) {
	a, err := New(testTask(t, "PS", 4, 32))
	if err != nil {
		t.Fatal(err)
	}
	choice, err := a.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Estimates) != 4 {
		t.Fatalf("got %d estimates, want 4", len(a.Estimates))
	}
	if a.Estimates[0].Kind != choice {
		t.Error("choice is not the best estimate")
	}
	for _, e := range a.Estimates {
		if e.ComparableCost() <= 0 {
			t.Errorf("%v: non-positive cost %v", e.Kind, e.ComparableCost())
		}
	}
	// GDP never shuffles hidden embeddings.
	for _, e := range a.Estimates {
		if e.Kind == strategy.GDP && e.ShuffleSec != 0 {
			t.Error("GDP estimate has hidden shuffle cost")
		}
	}
	if a.PlanWallSeconds <= 0 {
		t.Error("plan wall time not recorded")
	}
	if rep := FormatEstimates(a.Estimates); len(rep) == 0 {
		t.Error("empty estimate report")
	}
}

// TestCostModelTracksActual checks the planner's core property: for
// each strategy, the estimated strategy-unique cost must track the
// engine's measured build+load+shuffle time within a modest error
// (paper Fig. 12 reports <= 5.5% on their testbed; we allow more
// because the dry-run epoch and measured epochs sample independently).
func TestCostModelTracksActual(t *testing.T) {
	a, err := New(testTask(t, "FS", 4, 32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Plan(); err != nil {
		t.Fatal(err)
	}
	for _, est := range a.Estimates {
		eng, err := a.BuildEngine(est.Kind)
		if err != nil {
			t.Fatal(err)
		}
		st := eng.RunEpoch()
		actual := st.SampleSec + st.BuildSec + st.LoadSec + st.ShuffleSec
		rel := (est.ComparableCost() - actual) / actual
		if rel < -0.5 || rel > 0.5 {
			t.Errorf("%v: estimate %.4fs vs actual %.4fs (rel err %.0f%%)",
				est.Kind, est.ComparableCost(), actual, rel*100)
		}
	}
}

// TestAPTSelectionQuality is the headline claim: APT's pick must be
// the optimal strategy or within 25% of it, across datasets.
func TestAPTSelectionQuality(t *testing.T) {
	for _, abbr := range []string{"PS", "FS", "IM"} {
		a, err := New(testTask(t, abbr, 4, 32))
		if err != nil {
			t.Fatal(err)
		}
		choice, err := a.Plan()
		if err != nil {
			t.Fatal(err)
		}
		actual := map[strategy.Kind]float64{}
		for _, k := range strategy.Core {
			eng, err := a.BuildEngine(k)
			if err != nil {
				t.Fatal(err)
			}
			actual[k] = eng.RunEpoch().EpochTime()
		}
		best, bestT := strategy.GDP, actual[strategy.GDP]
		for k, v := range actual {
			if v < bestT {
				best, bestT = k, v
			}
		}
		t.Logf("%s: APT chose %v (%.4fs), optimal %v (%.4fs)", abbr, choice, actual[choice], best, bestT)
		if actual[choice] > bestT*1.25 {
			t.Errorf("%s: APT chose %v (%.4fs) but %v is %.4fs — more than 25%% off",
				abbr, choice, actual[choice], best, bestT)
		}
	}
}

func TestTrainWithRealFeatures(t *testing.T) {
	spec, _ := dataset.ByAbbr("FS", 0.04)
	spec.FeatDim = 16
	spec.Classes = 4
	spec.HomophilyDegree = 6
	d := dataset.Build(spec, true)
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, 2)
	task := Task{
		Graph:  d.Graph,
		Feats:  d.Feats,
		Labels: d.Labels,
		Seeds:  d.TrainSeeds,
		NewModel: func() *nn.Model {
			return nn.NewGraphSAGE(16, 16, 4, 2)
		},
		NewOptimizer: func() nn.Optimizer { return nn.NewAdam(0.01) },
		Sampling:     sample.Config{Fanouts: []int{8, 8}},
		BatchSize:    64,
		Platform:     p,
		Seed:         11,
	}
	a, err := New(task)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Train(10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == nil || len(res.Epochs) != 10 {
		t.Fatal("missing result pieces")
	}
	last := len(res.Epochs) - 1
	if res.Epochs[last].MeanLoss >= res.Epochs[0].MeanLoss {
		t.Errorf("loss did not decrease: %v -> %v", res.Epochs[0].MeanLoss, res.Epochs[last].MeanLoss)
	}
	acc := engine.Evaluate(d.Graph, res.Model, d.Feats, d.Labels, d.TestSeeds, task.Sampling, 64, 1)
	if acc < 0.4 {
		t.Errorf("test accuracy %v too low", acc)
	}
	if res.SimulatedEpochSeconds() <= 0 {
		t.Error("no simulated epoch time")
	}
}

func TestTrainWithPinnedStrategy(t *testing.T) {
	a, err := New(testTask(t, "FS", 2, 16))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.TrainWith(strategy.DNP, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Choice != strategy.DNP || len(res.Epochs) != 1 {
		t.Error("pinned strategy run wrong")
	}
}

func TestAccessSkewFromDryRun(t *testing.T) {
	a, err := New(testTask(t, "PS", 4, 32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Plan(); err != nil {
		t.Fatal(err)
	}
	buckets := graph.AccessSkew(a.DryRunStats().Freq)
	if len(buckets) != 6 {
		t.Fatal("skew table wrong size")
	}
	if buckets[0].AccessRatio < 0.15 {
		t.Errorf("PS top-1%% = %.3f, want skewed", buckets[0].AccessRatio)
	}
	if s := graph.FormatSkewTable(buckets); len(s) == 0 {
		t.Error("empty skew table")
	}
}

func TestCostModelIncludeTrainAblation(t *testing.T) {
	a, err := New(testTask(t, "PS", 4, 32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Plan(); err != nil {
		t.Fatal(err)
	}
	cm := &CostModel{Profile: a.Profile(), Devices: 4, IncludeTrain: true}
	ests := cm.Select(a.DryRunStats().PerStrategy)
	for _, e := range ests {
		if e.TrainSec <= 0 {
			t.Errorf("%v: IncludeTrain did not populate TrainSec", e.Kind)
		}
		if e.TotalCost() <= e.ComparableCost() {
			t.Errorf("%v: total not larger than unique", e.Kind)
		}
	}
}

func TestReportContainsAllSections(t *testing.T) {
	a, err := New(testTask(t, "PS", 4, 32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Plan(); err != nil {
		t.Fatal(err)
	}
	rep := a.Report()
	for _, want := range []string{"operator profile", "graph partition", "node-access skew", "cost-model estimates", "selected:", "Permute:"} {
		if !containsStr(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}
