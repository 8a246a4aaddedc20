package core

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/strategy"
)

// Synthetic planner inputs for re-planner unit tests: a profile that
// lies about host-read speed (50x too fast, the classic mis-profiled
// UVA link), dry-run stats where one strategy's load is host-bound
// and another's is cache-resident, and a measured epoch that tells
// the truth. No engine runs — the tests pin the decision logic alone.

const hostReadLie = 50.0

func replanProfile() *comm.Profile {
	return &comm.Profile{
		AllToAllBps:      1e10,
		AllGatherBps:     1e10,
		AllReduceBps:     1e10,
		UVAReadBps:       hostReadLie * 1e9, // honest link moves 1e9 B/s
		RemoteReadBps:    1e9,
		GPUReadBps:       1e12,
		AllToAllCallSec:  1e-6,
		AllGatherCallSec: 1e-6,
		ReadCallSec:      1e-6,
	}
}

// replanStats builds the dry-run stats map fresh each call (fresh map
// ⇒ fresh iteration order, which the determinism test leans on).
// GDP loads 1 GB from host memory per epoch; SNP serves the same
// bytes from GPU cache but pays collective traffic; NFP and DNP are
// strictly worse fillers.
func replanStats() map[strategy.Kind]engine.EpochStats {
	mk := func(fill func(ws *engine.WorkerStats)) engine.EpochStats {
		st := engine.EpochStats{SampleSec: 0.01, TrainSec: 0.05, NumBatches: 10,
			PerDevice: make([]engine.WorkerStats, 2)}
		for i := range st.PerDevice {
			fill(&st.PerDevice[i])
		}
		return st
	}
	return map[strategy.Kind]engine.EpochStats{
		strategy.GDP: mk(func(ws *engine.WorkerStats) {
			ws.Load.Bytes[cache.LocLocalCPU] = 1e9
		}),
		strategy.SNP: mk(func(ws *engine.WorkerStats) {
			ws.Load.Bytes[cache.LocGPU] = 1e9
			ws.GraphA2ABytes = 2e8
			ws.BuildA2ACalls = 10
			ws.HiddenA2ABytes = 4e8
			ws.ShufA2ACalls = 10
		}),
		strategy.NFP: mk(func(ws *engine.WorkerStats) {
			ws.Load.Bytes[cache.LocLocalCPU] = 1e9
			ws.GraphBcastBytes = 1e9
			ws.BuildBcastCalls = 10
			ws.HiddenBcastBytes = 1e9
			ws.ShufBcastCalls = 10
		}),
		strategy.DNP: mk(func(ws *engine.WorkerStats) {
			ws.Load.Bytes[cache.LocLocalCPU] = 1e9
			ws.GraphA2ABytes = 1e9
			ws.BuildA2ACalls = 10
			ws.HiddenA2ABytes = 1e9
			ws.ShufA2ACalls = 10
		}),
	}
}

func replanFreq() []int64 {
	freq := make([]int64, 1000)
	for i := range freq {
		freq[i] = int64(1000 - i)
	}
	return freq
}

func newTestReplanner() *Replanner {
	cm := &CostModel{Profile: replanProfile(), Devices: 2, IncludeTrain: true}
	return NewReplanner(cm, replanStats(), replanFreq(),
		64*1024, 16, 2, 0, Plan{Kind: strategy.GDP})
}

// measuredGDP is an honest epoch of the GDP plan: sampling and
// training as predicted, but the 1 GB host load took a full second —
// the profile's 50x-fast lie exposed.
func measuredGDP() engine.EpochStats {
	return engine.EpochStats{SampleSec: 0.01, LoadSec: 1.0, TrainSec: 0.05}
}

// TestReplannerDeterministic: the same dry-run stats and measured
// epochs must produce the same plan sequence every time. The stats
// map is rebuilt per trial so Go's randomized map iteration order
// gets a fresh roll — any order-dependence in candidate enumeration
// shows up as a diverging trial.
func TestReplannerDeterministic(t *testing.T) {
	run := func() ([]Plan, []ReplanEvent) {
		rp := newTestReplanner()
		var plans []Plan
		for epoch := 0; epoch < 4; epoch++ {
			p, _ := rp.Observe(epoch, measuredGDP())
			plans = append(plans, p)
		}
		return plans, rp.Events
	}
	wantPlans, wantEvents := run()
	for trial := 1; trial < 30; trial++ {
		plans, events := run()
		if !reflect.DeepEqual(plans, wantPlans) {
			t.Fatalf("trial %d: plan sequence %v, want %v", trial, plans, wantPlans)
		}
		if !reflect.DeepEqual(events, wantEvents) {
			t.Fatalf("trial %d: events %+v, want %+v", trial, events, wantEvents)
		}
	}
}

// TestReplannerRecoversFromMisprofiledHostReads: under the lying
// profile the planner starts on GDP (host load looks 50x cheaper than
// it is). One honest measured epoch must calibrate the host factor
// back to ~50 and switch to SNP, whose load never touches the host
// link — and the correction must not inflate SNP's cache-resident
// load estimate.
func TestReplannerRecoversFromMisprofiledHostReads(t *testing.T) {
	rp := newTestReplanner()
	next, switched := rp.Observe(0, measuredGDP())
	if !switched || next.Kind != strategy.SNP {
		t.Fatalf("Observe = %v, switched=%v; want a switch to SNP", next, switched)
	}
	cal := rp.cal
	if cal.LoadHost < 0.8*hostReadLie || cal.LoadHost > 1.2*hostReadLie {
		t.Errorf("LoadHost factor = %.2f, want ~%.0f (the injected distortion)", cal.LoadHost, hostReadLie)
	}
	if len(rp.Events) != 1 {
		t.Fatalf("%d events recorded, want 1", len(rp.Events))
	}
	if ev := rp.Events[0]; ev.PredictedGain < 0.5 {
		t.Errorf("predicted gain %.2f, want > 0.5 (GDP's real load is ~16x SNP's unique cost)", ev.PredictedGain)
	}
}

// TestReplannerCooldownBlocksImmediateSwitchBack: the epoch right
// after a switch is inside the cooldown window, so even a measured
// epoch that would re-rank the candidates cannot flap the plan.
func TestReplannerCooldownBlocksImmediateSwitchBack(t *testing.T) {
	rp := newTestReplanner()
	if _, switched := rp.Observe(0, measuredGDP()); !switched {
		t.Fatal("setup: first epoch should have switched to SNP")
	}
	// An SNP epoch measuring nothing unusual; regardless of content,
	// cooldown must hold the plan.
	cur := rp.Current()
	next, switched := rp.Observe(1, engine.EpochStats{SampleSec: 0.01, LoadSec: 0.001, TrainSec: 0.05, ShuffleSec: 0.04})
	if switched || next != cur {
		t.Fatalf("switched to %v during cooldown; want %v held", next, cur)
	}
}

// TestPipelinedAdaptiveRunHoldsPlan: pipelining a task changes neither
// its strategy nor its tier split, so a pipelined adaptive run whose
// candidates never clear the hysteresis guard records no switch.
func TestPipelinedAdaptiveRunHoldsPlan(t *testing.T) {
	task := testTask(t, "PS", 4, 32)
	task.Pipeline = true
	task.Int8CacheFrac = 0.5
	a, err := New(task)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.TrainAdaptive(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Replans) != 0 {
		t.Errorf("pipelined adaptive run switched plans: %+v", res.Replans)
	}
	if n := a.Metrics().Counter("apt_replan_switches_total", "").Value(); n != 0 {
		t.Errorf("apt_replan_switches_total = %d, want 0", n)
	}
}

// TestReplannerHysteresisHoldsMarginalWins: with the tier split
// frozen, a candidate that is only marginally cheaper than the
// calibrated current plan must not trigger a rebuild. The measured
// load (0.065s vs the 0.02s lie) calibrates GDP to ~0.075s unique
// cost — about 5% above SNP's 0.071s, under the 15% hysteresis bar.
func TestReplannerHysteresisHoldsMarginalWins(t *testing.T) {
	rp := newTestReplanner()
	rp.int8Fracs = []float64{0}
	measured := engine.EpochStats{SampleSec: 0.01, LoadSec: 0.065, TrainSec: 0.05}
	next, switched := rp.Observe(0, measured)
	if switched {
		t.Fatalf("switched to %v on a marginal (<15%%) predicted win", next)
	}
	// Non-vacuous: under the calibrated model SNP really is cheaper —
	// the guard, not the ranking, held the plan.
	cur, snp := rp.planCost(rp.cur), rp.planCost(Plan{Kind: strategy.SNP})
	if snp >= cur {
		t.Fatalf("calibrated SNP cost %.4f is not below current %.4f; the test exercises nothing", snp, cur)
	}
	if gain := (cur - snp) / cur; gain >= replanMinRelGain {
		t.Fatalf("predicted gain %.2f clears the %.2f bar; fixture no longer marginal", gain, replanMinRelGain)
	}
	if len(rp.Events) != 0 {
		t.Fatalf("%d events recorded, want none", len(rp.Events))
	}
}
