package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/strategy"
)

// Figure1 reproduces the motivating experiment: GraphSAGE on 8 GPUs,
// varying the input feature dimension on PS and the hidden dimension
// on FS — showing there is no consistent winner.
func (e *Env) Figure1() (string, error) {
	var b strings.Builder
	b.WriteString(header("Figure 1", "no consistent winner: epoch time of the 4 strategies"))
	for _, in := range []int{64, 128, 256, 512} {
		c, err := e.RunCase(e.task(taskConfig{abbr: "PS", featDim: in, hidden: 32}))
		if err != nil {
			return "", err
		}
		b.WriteString(barsForCase(fmt.Sprintf("(a) PS, input dim %d, hidden 32", in), c))
	}
	for _, h := range []int{8, 32, 128, 512} {
		c, err := e.RunCase(e.task(taskConfig{abbr: "FS", hidden: h}))
		if err != nil {
			return "", err
		}
		b.WriteString(barsForCase(fmt.Sprintf("(b) FS, hidden dim %d", h), c))
	}
	return b.String(), nil
}

// Figure8Hidden is Fig. 8a: the hidden-dimension sweep on all three
// graphs with 8 GPUs.
func (e *Env) Figure8Hidden() (string, error) {
	var b strings.Builder
	b.WriteString(header("Figure 8a", "single machine, varying hidden dimension"))
	for _, abbr := range []string{"PS", "FS", "IM"} {
		for _, h := range []int{8, 32, 128, 512} {
			c, err := e.RunCase(e.task(taskConfig{abbr: abbr, hidden: h}))
			if err != nil {
				return "", err
			}
			b.WriteString(barsForCase(fmt.Sprintf("%s, hidden %d", abbr, h), c))
		}
	}
	return b.String(), nil
}

// Figure8Fanout is Fig. 8b: the fanout sweep (2- and 3-layer models).
func (e *Env) Figure8Fanout() (string, error) {
	var b strings.Builder
	b.WriteString(header("Figure 8b", "single machine, varying fanout"))
	fanouts := [][]int{{10, 5}, {15, 10}, {10, 10, 10}, {20, 15, 10}}
	for _, abbr := range []string{"PS", "FS", "IM"} {
		for _, f := range fanouts {
			c, err := e.RunCase(e.task(taskConfig{abbr: abbr, hidden: 32, fanouts: f}))
			if err != nil {
				return "", err
			}
			b.WriteString(barsForCase(fmt.Sprintf("%s, fanout %v", abbr, f), c))
		}
	}
	return b.String(), nil
}

// Figure8Cache is Fig. 8c: the GPU cache-size sweep (fractions of the
// feature bytes standing in for the paper's 0-8 GB absolute sizes).
func (e *Env) Figure8Cache() (string, error) {
	var b strings.Builder
	b.WriteString(header("Figure 8c", "single machine, varying GPU cache size"))
	for _, abbr := range []string{"PS", "FS", "IM"} {
		for _, frac := range []float64{-1, 0.02, 0.04, 0.08, 0.16} {
			label := "disabled"
			if frac > 0 {
				label = fmt.Sprintf("%.0f%% of features", frac*100)
			}
			c, err := e.RunCase(e.task(taskConfig{abbr: abbr, hidden: 32, cacheFrac: frac}))
			if err != nil {
				return "", err
			}
			b.WriteString(barsForCase(fmt.Sprintf("%s, cache %s", abbr, label), c))
		}
	}
	return b.String(), nil
}

// Figure9 is the distributed experiment: 16 GPUs on 4 machines,
// varying hidden dimension; features partitioned across machine CPUs.
func (e *Env) Figure9() (string, error) {
	var b strings.Builder
	b.WriteString(header("Figure 9", "4 machines x 4 GPUs, varying hidden dimension"))
	p := hardware.FourMachines4GPU()
	for _, abbr := range []string{"PS", "FS", "IM"} {
		for _, h := range []int{8, 32, 128, 512} {
			c, err := e.RunCase(e.task(taskConfig{abbr: abbr, hidden: h, platform: p}))
			if err != nil {
				return "", err
			}
			b.WriteString(barsForCase(fmt.Sprintf("%s, hidden %d (distributed)", abbr, h), c))
		}
	}
	return b.String(), nil
}

// Figure10 is the attention-model experiment: GAT with 4 heads,
// varying the per-head hidden dimension (total = 4x).
func (e *Env) Figure10() (string, error) {
	var b strings.Builder
	b.WriteString(header("Figure 10", "GAT (4 heads), single machine, varying hidden dimension"))
	for _, abbr := range []string{"PS", "FS", "IM"} {
		for _, h := range []int{2, 8, 32, 64} {
			c, err := e.RunCase(e.task(taskConfig{abbr: abbr, model: "gat", hidden: h, heads: 4}))
			if err != nil {
				return "", err
			}
			b.WriteString(barsForCase(fmt.Sprintf("%s, GAT hidden %dx4", abbr, h), c))
		}
	}
	return b.String(), nil
}

// Figure11 contrasts METIS-quality multilevel partitioning against
// random partitioning: GDP/NFP are unaffected, SNP/DNP degrade. The
// paper's real graphs have strong community structure that METIS
// exploits (cuts of a few percent); RMAT synthetics are notoriously
// hard to partition, so the effect is muted on the PS/FS/IM presets —
// the "CM" community-dominated graph isolates the mechanism the figure
// is about (multilevel cut ~25% vs random ~87%).
func (e *Env) Figure11() (string, error) {
	var b strings.Builder
	b.WriteString(header("Figure 11", "multilevel vs random graph partitions"))
	e.data["CM"] = dataset.Build(dataset.Spec{
		Name: "community-sim", Abbr: "CM",
		NumNodes: int(130_000 * e.opts.Scale), AvgDegree: 6, FeatDim: 128,
		Classes: 64, SkewA: 0.35, HomophilyDegree: 14,
		TrainFraction: 0.08, Seed: 2002,
	}, false)
	for _, abbr := range []string{"PS", "FS", "IM", "CM"} {
		ml, err := e.RunCase(e.task(taskConfig{abbr: abbr, hidden: 32}))
		if err != nil {
			return "", err
		}
		rd, err := e.RunCase(e.task(taskConfig{abbr: abbr, hidden: 32, randPart: true}))
		if err != nil {
			return "", err
		}
		b.WriteString(barsForCase(fmt.Sprintf("%s, multilevel partitioning", abbr), ml))
		b.WriteString(barsForCase(fmt.Sprintf("%s, random partitioning", abbr), rd))
		for _, k := range []strategy.Kind{strategy.SNP, strategy.DNP} {
			ratio := rd.Stats[k].EpochTime() / ml.Stats[k].EpochTime()
			fmt.Fprintf(&b, "  %s %v slowdown under random partitioning: %.2fx\n", abbr, k, ratio)
		}
		fmt.Fprintf(&b, "  %s per-tier reads (multilevel, %v): %s\n",
			abbr, ml.Choice, tierReadShares(ml.Stats[ml.Choice]))
	}
	return b.String(), nil
}

// Figure12 compares the cost models' estimated epoch time against the
// measured epoch time (the paper adds GDP's training-compute time to
// the strategy-unique estimate, as isolating shuffle from training is
// tricky; we do the same).
func (e *Env) Figure12() (string, error) {
	var b strings.Builder
	b.WriteString(header("Figure 12", "cost-model estimated vs actual epoch time (FS)"))
	var maxErr float64
	for _, h := range []int{8, 32, 128} {
		c, err := e.RunCase(e.task(taskConfig{abbr: "FS", hidden: h}))
		if err != nil {
			return "", err
		}
		gdpTrain := c.Stats[strategy.GDP].TrainSec
		fmt.Fprintf(&b, "FS hidden %d:\n", h)
		for _, est := range c.APT.Estimates {
			actual := c.Stats[est.Kind].EpochTime()
			predicted := est.ComparableCost() + gdpTrain
			rel := (predicted - actual) / actual * 100
			if r := abs(rel); r > maxErr {
				maxErr = r
			}
			fmt.Fprintf(&b, "  %-4v estimated %.4fs  actual %.4fs  error %+.1f%%\n",
				est.Kind, predicted, actual, rel)
		}
	}
	fmt.Fprintf(&b, "max |error| = %.1f%% (paper reports max 5.5%% on their testbed)\n", maxErr)
	return b.String(), nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Figure7 is the efficiency sanity check: our engine's GDP against the
// DGL stand-in (GDP with the GPU cache disabled, as the paper disables
// caching to match DGL) and the DistDGL stand-in (GDP with CPU-based
// sampling, ~5x slower draws).
func (e *Env) Figure7() (string, error) {
	var b strings.Builder
	b.WriteString(header("Figure 7", "engine GDP vs DGL/DistDGL stand-ins (epoch time)"))

	// Single machine: cache on (APT) vs off (DGL).
	apt, err := e.RunCase(e.task(taskConfig{abbr: "PS", hidden: 32}))
	if err != nil {
		return "", err
	}
	noCache, err := e.RunCase(e.task(taskConfig{abbr: "PS", hidden: 32, cacheFrac: -1}))
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "single machine PS: APT-GDP (no cache, DGL-style) %.4fs vs APT-GDP %.4fs\n",
		noCache.Stats[strategy.GDP].EpochTime(), apt.Stats[strategy.GDP].EpochTime())

	// Distributed: GPU sampling vs CPU sampling (DistDGL).
	p := hardware.FourMachines4GPU()
	gpuS, err := e.RunCase(e.task(taskConfig{abbr: "PS", hidden: 32, platform: p}))
	if err != nil {
		return "", err
	}
	slow := *p
	slow.SampleEdgesPerSec /= 5
	cpuS, err := e.RunCase(e.task(taskConfig{abbr: "PS", hidden: 32, platform: &slow}))
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "distributed PS: GDP with GPU sampling %.4fs vs CPU sampling (DistDGL-style) %.4fs\n",
		gpuS.Stats[strategy.GDP].EpochTime(), cpuS.Stats[strategy.GDP].EpochTime())
	fmt.Fprintf(&b, "dry-run (plan) wall time: %.2fs\n", apt.APT.PlanWallSeconds)
	return b.String(), nil
}

var _ = engine.EpochStats{} // keep import while reports evolve
