package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cache"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/strategy"
)

// Estimate is the cost model's predicted per-epoch time of one
// strategy, decomposed per the paper's Eq. (2). T_train is identical
// across strategies and excluded from comparison by default; it can be
// included for the full-cost ablation.
type Estimate struct {
	Kind strategy.Kind
	// BuildSec estimates T_build: sampling plus computation-graph
	// shuffling.
	BuildSec float64
	// LoadSec estimates T_load from the collected per-location volumes
	// and the profiled read speeds.
	LoadSec float64
	// ShuffleSec estimates T_shuffle from the collected hidden-embedding
	// volumes and the profiled collective speeds.
	ShuffleSec float64
	// LoadHostSec is the host-side share of LoadSec (CPU and remote
	// reads over the contended link) on the load-critical device — the
	// part online calibration can re-scale independently of GPU-side
	// cache hits.
	LoadHostSec float64
	// TrainSec carries the (strategy-common) computation estimate; set
	// only when requested.
	TrainSec float64
	// OOM marks a strategy predicted to exceed device memory.
	OOM bool
}

// ComparableCost is the strategy-unique portion the planner compares
// (paper: "the costs have common parts for all strategies ... we
// compare only the unique parts").
func (e Estimate) ComparableCost() float64 {
	return e.BuildSec + e.LoadSec + e.ShuffleSec
}

// TotalCost includes the common training term.
func (e Estimate) TotalCost() float64 { return e.ComparableCost() + e.TrainSec }

// Calibration holds multiplicative correction factors learned online:
// each is measured-over-predicted, so a factor of 1 means the dry-run
// model was exact and 2 means the stage ran twice as slow as
// predicted (a mis-profiled operator, contention the one-shot
// bandwidth trial missed, ...). The planner multiplies every
// strategy's estimate by the shared factors — the correction
// transfers across strategies because all of them move bytes through
// the same profiled operators.
//
// The load stage gets special treatment: its GPU-side share (cache
// hits at device-memory speed) and host-side share (CPU/remote reads
// over the contended link) respond to different operators, and a
// single scalar would punish a strategy whose load is genuinely cheap
// because another strategy's host reads were mis-profiled. The
// measured load residual is therefore attributed to the host term
// only (LoadHost); the GPU-side term stays at the profile's word.
type Calibration struct {
	Build    float64
	LoadHost float64
	Shuffle  float64
}

// factor guards degenerate measurements: non-positive factors (stage
// absent from the measured epoch, or prediction was zero) fall back
// to the uncalibrated model.
func calFactor(f float64) float64 {
	if f <= 0 {
		return 1
	}
	return f
}

// Observe derives calibration factors from one measured epoch of the
// strategy predicted by est (the uncalibrated estimate for the
// strategy that actually ran). A stage the running plan does not
// exercise is unobservable this epoch, so its factor is kept rather
// than reset — forgetting a correction the moment the planner routes
// around the slow operator would flap straight back onto it.
func (c *Calibration) Observe(est Estimate, measured engine.EpochStats) {
	c.Build = stickyRatio(c.Build, measured.SampleSec+measured.BuildSec, est.BuildSec)
	c.Shuffle = stickyRatio(c.Shuffle, measured.ShuffleSec, est.ShuffleSec)
	if est.LoadHostSec > 0.01*est.LoadSec {
		residual := measured.LoadSec - (est.LoadSec - est.LoadHostSec)
		c.LoadHost = stickyRatio(c.LoadHost, residual, est.LoadHostSec)
	}
}

// stickyRatio is measured/predicted, falling back to the previous
// factor when either side is degenerate (stage absent this epoch).
func stickyRatio(prev, measured, predicted float64) float64 {
	if measured <= 0 || predicted <= 0 {
		return prev
	}
	return measured / predicted
}

// CostModel converts dry-run volumes into per-strategy time estimates
// using the Prepare-step operator profile.
type CostModel struct {
	Profile *comm.Profile
	Devices int
	// IncludeTrain adds the common T_train term (ablation switch).
	IncludeTrain bool
	// Cal, when non-nil, multiplies each strategy-unique stage's
	// estimate by the measured correction factor (online re-planning
	// mode).
	Cal *Calibration
}

// Estimate applies the paper's §3.2 cost model to one strategy's
// dry-run statistics. Each communication operator is treated
// separately with its profiled speed and per-call latency, and the
// per-stage estimate is the maximum over devices (synchronous steps
// wait for the slowest device, which matters on skewed graphs where
// partition owners serve unequal volumes).
func (cm *CostModel) Estimate(k strategy.Kind, st engine.EpochStats) Estimate {
	out := Estimate{Kind: k, OOM: st.OOM, BuildSec: st.SampleSec}
	p := cm.Profile
	hostFactor := 1.0
	if cm.Cal != nil {
		hostFactor = calFactor(cm.Cal.LoadHost)
	}
	var buildMax, loadMax, hostAtMax, shufMax float64
	for i := range st.PerDevice {
		ws := &st.PerDevice[i]

		// T_build communication: subgraph shipping per operator.
		build := float64(ws.GraphA2ABytes)/p.AllToAllBps +
			float64(ws.GraphBcastBytes)/p.AllGatherBps +
			float64(ws.BuildA2ACalls)*p.AllToAllCallSec +
			float64(ws.BuildBcastCalls)*p.AllGatherCallSec

		// T_load: per-location volumes over the profiled read speeds,
		// plus the per-step read-issue latencies. GPU-side reads (both
		// cache tiers, peers) and host-side reads are tracked apart so
		// calibration can re-scale the contended host link alone; the
		// warm tier moves quantized bytes at GPU-memory speed, its
		// dequant fused into the consuming kernel and costed as
		// compute, not load.
		hit := float64(ws.Load.Bytes[cache.LocGPU]) / p.GPUReadBps
		hit += float64(ws.Load.Bytes[cache.LocGPUQ]) / p.GPUReadBps
		if ws.Load.Bytes[cache.LocPeerGPU] > 0 && p.PeerReadBps > 0 {
			hit += float64(ws.Load.Bytes[cache.LocPeerGPU]) / p.PeerReadBps
		}
		hit += float64(st.NumBatches) * p.ReadCallSec
		host := float64(ws.Load.Bytes[cache.LocLocalCPU]) / p.UVAReadBps
		if ws.Load.Bytes[cache.LocRemoteCPU] > 0 {
			host += float64(ws.Load.Bytes[cache.LocRemoteCPU]) / p.RemoteReadBps
		}
		load := hit + hostFactor*host

		// T_shuffle: hidden embeddings + gradients per operator.
		shuf := float64(ws.HiddenA2ABytes)/p.AllToAllBps +
			float64(ws.HiddenBcastBytes)/p.AllGatherBps +
			float64(ws.ShufA2ACalls)*p.AllToAllCallSec +
			float64(ws.ShufBcastCalls)*p.AllGatherCallSec

		if load > loadMax {
			loadMax, hostAtMax = load, hostFactor*host
		}
		buildMax = max(buildMax, build)
		shufMax = max(shufMax, shuf)
	}
	out.BuildSec += buildMax
	out.LoadSec = loadMax
	out.LoadHostSec = hostAtMax
	out.ShuffleSec = shufMax
	if cm.IncludeTrain {
		out.TrainSec = st.TrainSec
	}
	if c := cm.Cal; c != nil {
		out.BuildSec *= calFactor(c.Build)
		out.ShuffleSec *= calFactor(c.Shuffle)
	}
	return out
}

// Select returns the estimates for all candidate strategies sorted
// best-first; OOM-predicted strategies sort last. Candidates are
// evaluated in sorted Kind order and cost ties break on Kind, so the
// planner's pick is identical run to run even when two strategies cost
// exactly the same (building the slice in map iteration order made the
// tie-winner random; caught by aptlint/detrange).
func (cm *CostModel) Select(stats map[strategy.Kind]engine.EpochStats) []Estimate {
	kinds := make([]strategy.Kind, 0, len(stats))
	for k := range stats {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	ests := make([]Estimate, 0, len(kinds))
	for _, k := range kinds {
		ests = append(ests, cm.Estimate(k, stats[k]))
	}
	sort.Slice(ests, func(i, j int) bool {
		if ests[i].OOM != ests[j].OOM {
			return !ests[i].OOM
		}
		if ci, cj := ests[i].ComparableCost(), ests[j].ComparableCost(); ci != cj {
			return ci < cj
		}
		return ests[i].Kind < ests[j].Kind
	})
	return ests
}

// FormatEstimates renders a planner report.
func FormatEstimates(ests []Estimate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %10s %10s %10s %10s\n", "strat", "build(s)", "load(s)", "shuffle(s)", "unique(s)")
	for _, e := range ests {
		oom := ""
		if e.OOM {
			oom = " [OOM]"
		}
		fmt.Fprintf(&b, "%-6s %10.4f %10.4f %10.4f %10.4f%s\n",
			e.Kind, e.BuildSec, e.LoadSec, e.ShuffleSec, e.ComparableCost(), oom)
	}
	return b.String()
}
