package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/strategy"
	"repro/internal/tensor"
)

// Online adaptive re-planning (the dynamic half of the planner). The
// dry-run cost model predicts per-stage times from one profiled
// bandwidth trial and one accounting epoch; both can be wrong at run
// time — a mis-measured operator, interference from co-located jobs,
// or access skew that drifts from the dry-run sample. After every
// epoch the re-planner compares the measured per-stage times (the
// same numbers RecordEpochMetrics folds into the obs registry) against
// the prediction for the running plan, derives per-stage correction
// factors, re-runs strategy selection under the calibrated model, and
// — behind a hysteresis guard — switches strategy or resizes the
// fp32/int8 cache-tier split mid-run.

// Plan is one concrete configuration the adaptive trainer can run: a
// parallelization strategy and a warm-tier split.
type Plan struct {
	Kind strategy.Kind
	// Int8Frac is the warm tier's share of the cache budget.
	Int8Frac float64
}

// String implements fmt.Stringer.
func (p Plan) String() string {
	return fmt.Sprintf("%v(int8=%.2f)", p.Kind, p.Int8Frac)
}

// The re-planner's bounds.
const (
	// replanMinRelGain is the hysteresis guard: a candidate plan must
	// predict at least this fractional improvement over the current
	// plan's calibrated cost before the trainer rebuilds for it.
	// Rebuilding re-admits caches and resets optimizer moments, so
	// marginal wins are not worth the churn.
	replanMinRelGain = 0.15
	// replanCooldownEpochs blocks further switches for this many epochs
	// after one fires, so a switch's own transient (cold warm-tier, first
	// pipelined epoch) cannot trigger an immediate switch back.
	replanCooldownEpochs = 1
)

// ReplanEvent records one plan switch.
type ReplanEvent struct {
	// Epoch is the boundary (0-based, after that epoch ran) where the
	// switch fired.
	Epoch    int
	From, To Plan
	// PredictedGain is the fractional cost reduction the calibrated
	// model predicted for the switch.
	PredictedGain float64
	// Cal is the calibration snapshot the decision used.
	Cal Calibration
}

// Replanner turns measured epochs into plan decisions. It owns a
// calibrated CostModel and the dry-run statistics; Observe is called
// once per epoch boundary.
type Replanner struct {
	cm    *CostModel
	stats map[strategy.Kind]engine.EpochStats
	// int8Fracs are the candidate warm-tier splits evaluated each epoch.
	int8Fracs []float64

	// freq is the dry-run per-node access counts, hottest first — the
	// tier model integrates over it to predict how a candidate split
	// moves load bytes between GPU memory and the host link.
	freq       []int64
	cacheBytes int64
	featDim    int
	devices    int
	// baseFrac is the task's warm-tier split, which the dry-run volumes
	// were collected under; candidate splits are costed relative to it.
	baseFrac float64

	cur      Plan
	cooldown int
	cal      Calibration

	// Events accumulates every switch, oldest first.
	Events []ReplanEvent
}

// State snapshots the learned re-planner state for checkpointing.
func (r *Replanner) State() checkpoint.AdaptiveState {
	return checkpoint.AdaptiveState{
		Cooldown: r.cooldown,
		CalBuild: r.cal.Build, CalLoadHost: r.cal.LoadHost, CalShuffle: r.cal.Shuffle,
	}
}

// Restore adopts a checkpointed state (call before the first Observe).
func (r *Replanner) Restore(s checkpoint.AdaptiveState) {
	r.cooldown = s.Cooldown
	r.cal = Calibration{Build: s.CalBuild, LoadHost: s.CalLoadHost, Shuffle: s.CalShuffle}
}

// NewReplanner builds a re-planner over the planner's dry-run output.
// stats and freq are read, never written; baseFrac is the warm-tier
// split the dry-run volumes were measured with (the task's), initial
// the plan the first epoch runs under.
func NewReplanner(cm *CostModel, stats map[strategy.Kind]engine.EpochStats,
	freq []int64, cacheBytes int64, featDim, devices int, baseFrac float64, initial Plan) *Replanner {
	sorted := append([]int64(nil), freq...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	return &Replanner{
		cm: cm, stats: stats, int8Fracs: []float64{0, 0.25, 0.5},
		freq: sorted, cacheBytes: cacheBytes, featDim: featDim, devices: devices,
		baseFrac: baseFrac, cur: initial,
	}
}

// Current returns the plan the trainer should be running.
func (r *Replanner) Current() Plan { return r.cur }

// loadDim is the per-read feature width of one strategy (NFP shards
// the dimension across devices).
func (r *Replanner) loadDim(k strategy.Kind) int {
	if k == strategy.NFP {
		return (r.featDim + r.devices - 1) / r.devices
	}
	return r.featDim
}

// tierLoadSec predicts aggregate feature-load seconds under a
// candidate warm-tier split by integrating the hottest-first access
// distribution: the top band hits fp32 GPU cache, the next band hits
// the int8 tier (quantized bytes at GPU speed), everything below
// crosses the host link at full width. It is a global approximation —
// per-device placement is ignored — used only as a ratio against the
// same model at the dry-run's split, so the systematic error divides
// out.
func (r *Replanner) tierLoadSec(k strategy.Kind, frac float64) float64 {
	dim := r.loadDim(k)
	rowF := float64(4 * dim)
	rowQ := float64(tensor.QuantRowBytes(dim))
	hotN, warmN := cache.TierRows(r.cacheBytes, frac, dim)
	p := r.cm.Profile
	var sec float64
	for i, f := range r.freq {
		b := float64(f)
		switch {
		case i < hotN:
			sec += b * rowF / p.GPUReadBps
		case i < hotN+warmN:
			sec += b * rowQ / p.GPUReadBps
		default:
			sec += b * rowF / p.UVAReadBps
		}
	}
	return sec
}

// tierRatio scales a strategy's dry-run load estimate from the split
// the volumes were collected under to a candidate split.
func (r *Replanner) tierRatio(k strategy.Kind, frac float64) float64 {
	if frac == r.baseFrac {
		return 1
	}
	base := r.tierLoadSec(k, r.baseFrac)
	if base <= 0 {
		return 1
	}
	return r.tierLoadSec(k, frac) / base
}

// planCost is the calibrated strategy-unique cost of one candidate
// plan. The common training term is excluded from the comparison —
// like the static planner's — because it would dilute the relative
// gain and let the hysteresis guard mask real wins.
func (r *Replanner) planCost(p Plan) float64 {
	e := r.cm.Estimate(p.Kind, r.stats[p.Kind])
	e.LoadSec *= r.tierRatio(p.Kind, p.Int8Frac)
	return e.ComparableCost()
}

// Observe ingests one measured epoch of the current plan and returns
// the plan the next epoch should run, plus whether it changed. The
// decision is a pure function of (dry-run stats, measured stages,
// internal cooldown state): candidate strategies come from the cost
// model's sorted Select and candidate splits from a fixed slice, so
// the same inputs always produce the same plan.
func (r *Replanner) Observe(epoch int, measured engine.EpochStats) (Plan, bool) {
	// Calibrate: measured-over-predicted per stage, where the
	// prediction is the *uncalibrated* model for the plan that just
	// ran (its load term scaled to the split it actually used).
	r.cm.Cal = nil
	pred := r.cm.Estimate(r.cur.Kind, r.stats[r.cur.Kind])
	pred.LoadSec *= r.tierRatio(r.cur.Kind, r.cur.Int8Frac)
	r.cal.Observe(pred, measured)
	r.cm.Cal = &r.cal

	if r.cooldown > 0 {
		r.cooldown--
		return r.cur, false
	}

	curCost := r.planCost(r.cur)
	best, bestCost := r.cur, curCost
	for _, e := range r.cm.Select(r.stats) {
		if e.OOM {
			continue
		}
		for _, frac := range r.int8Fracs {
			p := Plan{Kind: e.Kind, Int8Frac: frac}
			if c := r.planCost(p); c < bestCost {
				best, bestCost = p, c
			}
		}
	}
	if best == r.cur {
		return r.cur, false
	}
	gain := 0.0
	if curCost > 0 {
		gain = (curCost - bestCost) / curCost
	}
	if gain < replanMinRelGain {
		return r.cur, false
	}
	r.Events = append(r.Events, ReplanEvent{
		Epoch: epoch, From: r.cur, To: best, PredictedGain: gain, Cal: r.cal,
	})
	r.cur = best
	r.cooldown = replanCooldownEpochs
	return best, true
}

// adoptParams copies trained parameters from src into every hosted
// replica of e. The engine keeps replicas synchronized, so any one's
// weights are the run's weights; optimizer moments are not carried (the
// rebuilt optimizer restarts cold, which SGD-family optimizers tolerate
// — the moments re-estimate within a few steps).
func adoptParams(e *engine.Engine, src *nn.Model) {
	for _, d := range e.Ranks() {
		dst := e.Model(d)
		for li, layer := range dst.Layers {
			sp := src.Layers[li].Params()
			for pi, p := range layer.Params() {
				copy(p.W.Data, sp[pi].W.Data)
			}
		}
	}
}

// TrainAdaptive runs the full pipeline with online re-planning: plan,
// train, and at every epoch boundary recalibrate the cost model from
// the measured stage times and — behind the hysteresis guard — switch
// strategy or cache-tier split for the remaining epochs.
func (a *APT) TrainAdaptive(epochs int) (*Result, error) {
	return a.TrainAdaptiveContext(context.Background(), epochs)
}

// TrainAdaptiveContext is TrainAdaptive under a context. It refuses a
// Transport that hosts only some of the platform's devices: a rank's
// EpochStats cover its own workers only, and the re-planner must see
// the whole job's epoch.
func (a *APT) TrainAdaptiveContext(ctx context.Context, epochs int) (*Result, error) {
	if epochs <= 0 {
		return nil, fmt.Errorf("core: epochs = %d", epochs)
	}
	if tr := a.Transport; tr != nil && len(tr.Ranks()) < a.task.Platform.NumDevices() {
		return nil, fmt.Errorf("core: adaptive training needs every device's epoch stats, but the transport hosts ranks %v of %d (each rank's EpochStats cover only its own workers)",
			tr.Ranks(), a.task.Platform.NumDevices())
	}
	if _, err := a.Plan(); err != nil {
		return nil, err
	}
	if a.dryRun == nil || a.dryRun.PerStrategy == nil {
		// A resumed run adopted the recorded plan without a dry run. The
		// per-strategy epochs the re-planner selects over are a function
		// of the task and its seed, so they are derived again.
		if _, err := a.DryRun(); err != nil {
			return nil, err
		}
	}
	devices := a.task.Platform.NumDevices()
	cm := &CostModel{Profile: a.profile, Devices: devices}
	rp := NewReplanner(cm, a.dryRun.PerStrategy, a.dryRun.Freq,
		a.task.CacheBytes, a.task.FeatDim, devices, a.task.Int8CacheFrac,
		Plan{Kind: a.Choice, Int8Frac: a.int8Frac})
	if a.resumeReplan != nil {
		// A resumed run adopts the interrupted run's calibration and
		// cooldown.
		rp.Restore(*a.resumeReplan)
		a.resumeReplan = nil
	}
	// The live re-planner is visible to buildSnapshot for the duration
	// of the run and afterwards, so both the per-epoch rolling snapshot
	// and an explicit post-run CheckpointFile capture its learned state.
	a.replanner = rp
	return a.train(ctx, a.Choice, epochs, rp)
}

// replan shows the re-planner the epoch that just completed (done in
// all) and applies its decision: nothing, or a rebuilt engine that
// adopts the trained parameters. It returns the engine the next epoch
// runs on — e unless a rebuild succeeded.
func (a *APT) replan(rp *Replanner, e *engine.Engine, done int, st engine.EpochStats) (*engine.Engine, error) {
	next, switched := rp.Observe(done-1, st)
	if !switched {
		return e, nil
	}
	a.reg.Counter("apt_replan_switches_total", "Online re-planner plan switches applied.").Inc()
	a.int8Frac = next.Int8Frac
	// Completed epochs move into the base across the rebuild, so the
	// epoch counter (and any snapshot of it) spans engines.
	a.epochBase = done
	rebuilt, err := a.BuildEngine(next.Kind)
	if err != nil {
		return e, err
	}
	adoptParams(rebuilt, e.Model(e.Ranks()[0]))
	return rebuilt, nil
}
