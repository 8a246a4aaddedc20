package repro_test

import (
	"testing"

	"repro"
)

// TestFacadeEndToEnd drives the full pipeline exclusively through the
// public facade, the way an importing module would.
func TestFacadeEndToEnd(t *testing.T) {
	spec, err := repro.DatasetPresets(0.04)[1], error(nil)
	if err != nil {
		t.Fatal(err)
	}
	spec.Classes = 8
	spec.HomophilyDegree = 6
	ds := repro.BuildDataset(spec, true)

	task := repro.Task{
		Graph:   ds.Graph,
		Feats:   ds.Feats,
		Labels:  ds.Labels,
		FeatDim: spec.FeatDim,
		Seeds:   ds.TrainSeeds,
		NewModel: func() *repro.Model {
			return repro.NewGraphSAGE(spec.FeatDim, 16, spec.Classes, 2)
		},
		NewOptimizer: func() repro.Optimizer { return repro.NewAdam(0.02) },
		Sampling:     repro.SamplingConfig{Fanouts: []int{8, 8}},
		BatchSize:    64,
		Platform:     repro.WithDevices(repro.SingleMachine8GPU(), 1, 2),
		CacheBytes:   ds.CacheBytesFraction(0.08),
		Seed:         5,
	}
	apt, err := repro.NewAPT(task)
	if err != nil {
		t.Fatal(err)
	}
	res, err := apt.Train(12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == nil || len(res.Epochs) != 12 {
		t.Fatal("facade Train incomplete")
	}
	acc := repro.Evaluate(ds.Graph, res.Model, ds.Feats, ds.Labels,
		ds.TestSeeds, task.Sampling, 128, 1)
	if acc <= 0.2 {
		t.Errorf("facade-trained accuracy %.3f too low", acc)
	}
	if plan := repro.DescribePlan(res.Choice, task.NewModel()); len(plan) == 0 {
		t.Error("empty plan description")
	}
	for _, k := range []repro.Strategy{repro.GDP, repro.NFP, repro.SNP, repro.DNP} {
		if k.String() == "" {
			t.Error("unnamed strategy")
		}
	}
}
