package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/sample"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// AblationFullCost checks the paper's design decision to compare only
// the strategy-unique cost terms: it reports whether adding the
// (strategy-common) training term ever changes APT's selection.
func (e *Env) AblationFullCost() (string, error) {
	var b strings.Builder
	b.WriteString(header("Ablation: full-cost model", "does including T_train change the selection?"))
	agree, total := 0, 0
	for _, abbr := range []string{"PS", "FS", "IM"} {
		for _, h := range []int{8, 32, 128} {
			res, err := e.RunCase(e.task(taskConfig{abbr: abbr, hidden: h}))
			if err != nil {
				return "", err
			}
			cm := &core.CostModel{
				Profile:      res.APT.Profile(),
				Devices:      e.opts.Devices,
				IncludeTrain: true,
			}
			full := cm.Select(res.APT.DryRunStats().PerStrategy)
			total++
			same := full[0].Kind == res.Choice
			if same {
				agree++
			}
			fmt.Fprintf(&b, "  %s hidden %-4d unique-cost pick %-4v full-cost pick %-4v agree=%v\n",
				abbr, h, res.Choice, full[0].Kind, same)
		}
	}
	fmt.Fprintf(&b, "agreement: %d/%d (the unique-parts comparison loses nothing when they agree)\n", agree, total)
	return b.String(), nil
}

// hotSetOverlap measures the paper's dry-run stability claim: the
// top-1% most-accessed nodes of two independently sampled epochs
// overlap almost completely (the paper reports 94.77% on PS).
func (e *Env) hotSetOverlap(abbr string) float64 {
	d := e.Dataset(abbr)
	epochFreq := func(seed uint64) []int64 {
		freq := make([]int64, d.Graph.NumNodes())
		s := sample.NewSampler(d.Graph, sample.Config{Fanouts: []int{10, 10, 10}}, graph.NewRNG(seed))
		for lo := 0; lo < len(d.TrainSeeds); lo += e.opts.BatchSize {
			hi := lo + e.opts.BatchSize
			if hi > len(d.TrainSeeds) {
				hi = len(d.TrainSeeds)
			}
			sample.CountLayer1SrcAccesses(freq, s.Sample(d.TrainSeeds[lo:hi]))
		}
		return freq
	}
	top1 := func(freq []int64) map[graph.NodeID]struct{} {
		n := len(freq)
		ids := make([]graph.NodeID, n)
		for i := range ids {
			ids[i] = graph.NodeID(i)
		}
		sort.Slice(ids, func(i, j int) bool { return freq[ids[i]] > freq[ids[j]] })
		k := n / 100
		set := make(map[graph.NodeID]struct{}, k)
		for _, v := range ids[:k] {
			set[v] = struct{}{}
		}
		return set
	}
	a := top1(epochFreq(11))
	bSet := top1(epochFreq(22))
	inter := 0
	for v := range a {
		if _, ok := bSet[v]; ok {
			inter++
		}
	}
	if len(a) == 0 {
		return 0
	}
	return float64(inter) / float64(len(a))
}

// AblationDryRunEpochs quantifies the paper's claim that one dry-run
// epoch suffices: the top-1% hot sets of two epochs overlap almost
// completely, and the single-epoch estimates track multi-epoch
// measurements.
func (e *Env) AblationDryRunEpochs() (string, error) {
	var b strings.Builder
	b.WriteString(header("Ablation: dry-run length", "1 dry-run epoch vs multi-epoch measurement"))
	for _, abbr := range []string{"PS", "FS"} {
		fmt.Fprintf(&b, "  %s: top-1%% hot-set overlap between two epochs: %.1f%% (paper: 94.77%% on PS)\n",
			abbr, e.hotSetOverlap(abbr)*100)
	}
	for _, abbr := range []string{"PS", "FS"} {
		res, err := e.RunCase(e.task(taskConfig{abbr: abbr, hidden: 32}))
		if err != nil {
			return "", err
		}
		var worst float64
		for _, est := range res.APT.Estimates {
			act := res.Stats[est.Kind]
			actual := act.SampleSec + act.BuildSec + act.LoadSec + act.ShuffleSec
			rel := abs((est.ComparableCost() - actual) / actual * 100)
			if rel > worst {
				worst = rel
			}
		}
		fmt.Fprintf(&b, "  %s: max |estimate error| from one dry-run epoch over %d measured epochs: %.1f%%\n",
			abbr, e.opts.Epochs, worst)
	}
	b.WriteString("(the paper observes ~95% hot-set overlap between epochs; one epoch suffices)\n")
	return b.String(), nil
}

// AblationCachePolicy swaps the paper's hotness-based cache rules for
// the degree-based PaGraph-style baseline and reports the change in
// feature-loading time for each strategy.
func (e *Env) AblationCachePolicy() (string, error) {
	var b strings.Builder
	b.WriteString(header("Ablation: cache policy", "dry-run hotness policy vs degree-based policy"))
	deg := cache.PolicyDegree
	for _, abbr := range []string{"PS", "FS"} {
		hot, err := e.RunCase(e.task(taskConfig{abbr: abbr, hidden: 32}))
		if err != nil {
			return "", err
		}
		task := e.task(taskConfig{abbr: abbr, hidden: 32})
		task.CachePolicyOverride = &deg
		degRes, err := e.RunCase(task)
		if err != nil {
			return "", err
		}
		rows := [][]string{}
		for _, k := range strategy.Core {
			rows = append(rows, []string{k.String(),
				fmt.Sprintf("%.4fs", hot.Stats[k].LoadSec),
				fmt.Sprintf("%.4fs", degRes.Stats[k].LoadSec),
				fmt.Sprintf("%.2fx", degRes.Stats[k].LoadSec/maxSec(hot.Stats[k].LoadSec))})
		}
		b.WriteString(trace.RenderTable(fmt.Sprintf("%s feature-loading time", abbr),
			[]string{"strategy", "hotness", "degree", "ratio"}, rows))
	}
	return b.String(), nil
}

func maxSec(s float64) float64 {
	if s <= 0 {
		return 1e-12
	}
	return s
}

// AblationPipelining compares three views of stage overlap
// (GNNLab/DSP-style pipelining of sampling against loading and
// training) per strategy: the synchronous epoch, the analytic ideal
// (slowest stage gates the epoch), and the time actually measured by
// running the pipelined engine (prefetch goroutine + bounded queue,
// engine.Config.Pipeline) — then asks whether overlap would change
// APT's selection.
func (e *Env) AblationPipelining() (string, error) {
	var b strings.Builder
	b.WriteString(header("Ablation: pipelined execution", "synchronous stages vs ideal overlap vs measured pipelined engine"))
	changed := 0
	for _, abbr := range []string{"PS", "FS", "IM"} {
		res, err := e.RunCase(e.task(taskConfig{abbr: abbr, hidden: 32}))
		if err != nil {
			return "", err
		}
		measured := map[strategy.Kind]float64{}
		res.APT.Task().Pipeline = true // res.Stats stay the synchronous dry-run's
		for _, k := range strategy.Core {
			eng, err := res.APT.BuildEngine(k)
			if err != nil {
				return "", err
			}
			measured[k] = eng.RunEpoch().MeasuredPipelinedSec
		}
		rows := [][]string{}
		bestSeq, _ := res.Best()
		bestPipe := strategy.GDP
		for _, k := range strategy.Core {
			st := res.Stats[k]
			rows = append(rows, []string{k.String(),
				fmt.Sprintf("%.4fs", st.EpochTime()),
				fmt.Sprintf("%.4fs", st.PipelinedTime()),
				fmt.Sprintf("%.4fs", measured[k]),
				fmt.Sprintf("%.2fx", st.EpochTime()/measured[k])})
			if measured[k] < measured[bestPipe] {
				bestPipe = k
			}
		}
		b.WriteString(trace.RenderTable(fmt.Sprintf("%s (hidden 32)", abbr),
			[]string{"strategy", "synchronous", "ideal", "measured", "speedup"}, rows))
		fmt.Fprintf(&b, "  optimal: synchronous %v, pipelined %v\n", bestSeq, bestPipe)
		if bestSeq != bestPipe {
			changed++
		}
	}
	fmt.Fprintf(&b, "pipelining changes the optimal strategy in %d/3 cases\n", changed)
	return b.String(), nil
}

// ExtensionNVLink studies fast peer-GPU links (not in the paper's
// testbed): with NVLink, peer caches become readable and GDP's feature
// loading improves.
func (e *Env) ExtensionNVLink() (string, error) {
	var b strings.Builder
	b.WriteString(header("Extension: NVLink platform", "peer-GPU cache reads shift the trade-offs"))
	for _, abbr := range []string{"FS"} {
		pcie, err := e.RunCase(e.task(taskConfig{abbr: abbr, hidden: 32}))
		if err != nil {
			return "", err
		}
		nv := hardware.WithDevices(hardware.SingleMachine8GPUNVLink(), 1, e.opts.Devices)
		nvRes, err := e.RunCase(e.task(taskConfig{abbr: abbr, hidden: 32, platform: nv}))
		if err != nil {
			return "", err
		}
		rows := [][]string{}
		for _, k := range strategy.Core {
			rows = append(rows, []string{k.String(),
				fmt.Sprintf("%.4fs", pcie.Stats[k].EpochTime()),
				fmt.Sprintf("%.4fs", nvRes.Stats[k].EpochTime())})
		}
		b.WriteString(trace.RenderTable(fmt.Sprintf("%s epoch time", abbr),
			[]string{"strategy", "PCIe only", "with NVLink"}, rows))
		fmt.Fprintf(&b, "  APT pick: PCIe %v, NVLink %v\n", pcie.Choice, nvRes.Choice)
	}
	return b.String(), nil
}
