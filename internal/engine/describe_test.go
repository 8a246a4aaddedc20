package engine

import (
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/strategy"
)

func TestDescribePlanCoversAllStrategies(t *testing.T) {
	sage := nn.NewGraphSAGE(8, 16, 4, 3)
	gat := nn.NewGAT(8, 4, 2, 4, 2)
	for _, k := range strategy.Core {
		out := DescribePlan(k, sage)
		for _, stage := range []string{"Permute:", "Shuffle:", "Execute:", "Reshuffle:"} {
			if !strings.Contains(out, stage) {
				t.Errorf("%v plan missing %s", k, stage)
			}
		}
		if !strings.Contains(out, "AllReduce") {
			t.Errorf("%v plan missing model sync", k)
		}
	}
	// Attention changes the SNP/NFP execute/reshuffle operators.
	snpSage := DescribePlan(strategy.SNP, sage)
	snpGat := DescribePlan(strategy.SNP, gat)
	if snpSage == snpGat {
		t.Error("SNP plan should differ between SAGE and GAT")
	}
	if !strings.Contains(snpGat, "attention") {
		t.Error("SNP GAT plan should mention attention")
	}
	if !strings.Contains(DescribePlan(strategy.GDP, sage), "none") {
		t.Error("GDP plan should have empty shuffle stages")
	}
}

func TestNewValidatesPartitionAssignment(t *testing.T) {
	f := newFixture(t, 2, 100)
	newModel := func() *nn.Model { return nn.NewGraphSAGE(f.dim, 8, f.classes, 2) }
	cfg := f.config(strategy.DNP, newModel, nil, []int{4})
	cfg.Assign = []int32{0, 1} // wrong length
	if _, err := New(cfg); err == nil {
		t.Error("accepted short partition assignment")
	}
	bad := make([]int32, f.g.NumNodes())
	bad[3] = 99 // device out of range
	cfg2 := f.config(strategy.DNP, newModel, nil, []int{4})
	cfg2.Assign = bad
	if _, err := New(cfg2); err == nil {
		t.Error("accepted out-of-range device in assignment")
	}
}
