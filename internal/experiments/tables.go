package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/job"
	"repro/internal/sample"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// Table1 prints the qualitative trade-off matrix.
func (e *Env) Table1() (string, error) {
	rows := [][]string{}
	for _, r := range strategy.Table1() {
		yn := func(b bool) string {
			if b {
				return "yes"
			}
			return "no"
		}
		rows = append(rows, []string{
			r.Kind.String(), r.ShuffleGraph.String(), r.ShuffleFeature.String(),
			r.ShuffleHidden.String(), r.CacheLocality.String(), yn(r.ExcessCache),
			yn(r.PartialAggr), yn(r.RequiresPartition),
		})
	}
	return header("Table 1", "strategy trade-off matrix") + trace.RenderTable("",
		[]string{"strategy", "shuffle-G", "shuffle-F", "shuffle-H", "locality", "excess-cache", "partial-aggr", "partition"},
		rows), nil
}

// Table2 reports the dataset statistics (the paper's Table 2, at the
// reproduction's scale): vertices, edges, feature dimension, topology
// and feature sizes.
func (e *Env) Table2() (string, error) {
	var b strings.Builder
	b.WriteString(header("Table 2", "graph dataset statistics (scaled)"))
	rows := [][]string{}
	paper := map[string][2]string{ // vertices, edges at paper scale
		"PS": {"111M", "3.2B"},
		"FS": {"66M", "3.6B"},
		"IM": {"269M", "3.9B"},
	}
	for _, abbr := range []string{"PS", "FS", "IM"} {
		d := e.Dataset(abbr)
		topoBytes := 8*int64(d.Graph.NumNodes()+1) + 4*d.Graph.NumEdges()
		rows = append(rows, []string{
			d.Name, abbr,
			fmt.Sprintf("%d", d.Graph.NumNodes()),
			fmt.Sprintf("%d", d.Graph.NumEdges()),
			fmt.Sprintf("%d", d.FeatDim),
			fmt.Sprintf("%.1fMB", float64(topoBytes)/1e6),
			fmt.Sprintf("%.1fMB", float64(d.FeatureBytes())/1e6),
			paper[abbr][0] + "/" + paper[abbr][1],
		})
	}
	b.WriteString(trace.RenderTable("",
		[]string{"dataset", "abbr", "vertices", "edges", "feat-dim", "topology", "features", "paper V/E"}, rows))
	return b.String(), nil
}

// Table3 reports node-access skewness per dataset: the share of all
// sampled-subgraph appearances attributable to each popularity band.
func (e *Env) Table3() (string, error) {
	var b strings.Builder
	b.WriteString(header("Table 3", "node access skewness (fanout [10,10,10])"))
	paper := map[string][]float64{
		"PS": {50.1, 34.8, 8.8, 4.7, 1.7, 0.0},
		"FS": {17.7, 29.4, 19.1, 18.8, 13.5, 1.6},
		"IM": {31.1, 39.0, 19.7, 9.3, 0.9, 0.0},
	}
	bandNames := []string{"<1%", "1~5%", "5~10%", "10~20%", "20~50%", "50~100%"}
	for _, abbr := range []string{"PS", "FS", "IM"} {
		d := e.Dataset(abbr)
		freq := make([]int64, d.Graph.NumNodes())
		s := sample.NewSampler(d.Graph, sample.Config{Fanouts: []int{10, 10, 10}}, graph.NewRNG(3))
		for lo := 0; lo < len(d.TrainSeeds); lo += e.opts.BatchSize {
			hi := lo + e.opts.BatchSize
			if hi > len(d.TrainSeeds) {
				hi = len(d.TrainSeeds)
			}
			mb := s.Sample(d.TrainSeeds[lo:hi])
			sample.CountLayer1SrcAccesses(freq, mb)
		}
		buckets := graph.AccessSkew(freq)
		rows := [][]string{}
		for i, bk := range buckets {
			rows = append(rows, []string{
				bandNames[i],
				fmt.Sprintf("%.1f%%", bk.AccessRatio*100),
				fmt.Sprintf("%.1f%%", paper[abbr][i]),
			})
		}
		b.WriteString(trace.RenderTable(fmt.Sprintf("%s (measured vs paper)", abbr),
			[]string{"node rank", "measured", "paper"}, rows))
	}
	return b.String(), nil
}

// Table4 computes the maximum speedup of APT's selection over always
// using one fixed strategy, maximized over the hidden-dimension and
// cache-size sweep configurations (the paper maximizes over its Fig. 8
// and Fig. 9 configurations).
func (e *Env) Table4() (string, error) {
	var b strings.Builder
	b.WriteString(header("Table 4", "max speedup of APT vs fixed strategies"))
	type cfg struct {
		tc   taskConfig
		name string
	}
	for _, abbr := range []string{"PS", "FS", "IM"} {
		cfgs := []cfg{}
		for _, h := range []int{8, 32, 128, 512} {
			cfgs = append(cfgs, cfg{taskConfig{abbr: abbr, hidden: h}, fmt.Sprintf("hidden %d", h)})
		}
		for _, frac := range []float64{-1, 0.02, 0.16} {
			cfgs = append(cfgs, cfg{taskConfig{abbr: abbr, hidden: 32, cacheFrac: frac}, fmt.Sprintf("cache %.2f", frac)})
		}
		cfgs = append(cfgs, cfg{taskConfig{abbr: abbr, hidden: 32, platform: hardware.FourMachines4GPU()}, "distributed"})
		maxSpeedup := map[strategy.Kind]float64{}
		for _, c := range cfgs {
			res, err := e.RunCase(e.task(c.tc))
			if err != nil {
				return "", err
			}
			chosen := res.Stats[res.Choice].EpochTime()
			for _, k := range strategy.Core {
				sp := res.Stats[k].EpochTime() / chosen
				if sp > maxSpeedup[k] {
					maxSpeedup[k] = sp
				}
			}
		}
		paper := map[string]map[strategy.Kind]float64{
			"PS": {strategy.GDP: 1.18, strategy.NFP: 7.57, strategy.SNP: 3.33, strategy.DNP: 1.59},
			"FS": {strategy.GDP: 2.13, strategy.NFP: 4.25, strategy.SNP: 2.35, strategy.DNP: 1.36},
			"IM": {strategy.GDP: 2.60, strategy.NFP: 5.88, strategy.SNP: 2.09, strategy.DNP: 1.55},
		}
		rows := [][]string{}
		for _, k := range strategy.Core {
			rows = append(rows, []string{k.String(),
				fmt.Sprintf("%.2f", maxSpeedup[k]),
				fmt.Sprintf("%.2f", paper[abbr][k])})
		}
		b.WriteString(trace.RenderTable(fmt.Sprintf("%s (measured vs paper)", abbr),
			[]string{"fixed strategy", "max speedup", "paper"}, rows))
	}
	return b.String(), nil
}

// Figure6 is the semantic-equivalence sanity check run end-to-end in
// real mode: test accuracy per epoch must coincide across strategies
// (they are trained on identical mini-batches here, so the curves are
// equal up to float reassociation).
func (e *Env) Figure6() (string, error) {
	var b strings.Builder
	b.WriteString(header("Figure 6", "test accuracy vs epoch, all strategies (real training)"))
	spec := job.Spec{Data: "FS", Scale: 0.08, Hidden: 16, Layers: 2, Fanout: 8, Batch: e.opts.BatchSize, LR: 0.02, Devices: 4}
	d, task, err := spec.Build(true, 7, func(s *dataset.Spec) {
		s.FeatDim = 32
		s.Classes = 8
		s.HomophilyDegree = 8
	})
	if err != nil {
		return "", err
	}
	task.CacheBytes = task.Platform.DefaultCacheBytes
	const epochs = 10

	curves := map[strategy.Kind][]float64{}
	for _, k := range strategy.Core {
		apt, err := core.New(task)
		if err != nil {
			return "", err
		}
		eng, err := apt.BuildEngine(k)
		if err != nil {
			return "", err
		}
		for ep := 0; ep < epochs; ep++ {
			eng.RunEpoch()
			acc := engine.Evaluate(d.Graph, eng.Model(0), d.Feats, d.Labels, d.TestSeeds, task.Sampling, 128, 1)
			curves[k] = append(curves[k], acc)
		}
	}
	rows := [][]string{}
	for ep := 0; ep < epochs; ep++ {
		row := []string{fmt.Sprintf("%d", ep+1)}
		for _, k := range strategy.Core {
			row = append(row, fmt.Sprintf("%.3f", curves[k][ep]))
		}
		rows = append(rows, row)
	}
	b.WriteString(trace.RenderTable("", []string{"epoch", "GDP", "NFP", "SNP", "DNP"}, rows))
	return b.String(), nil
}
