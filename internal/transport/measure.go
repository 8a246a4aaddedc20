package transport

import (
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/tensor"
)

// WireStats holds measured transport speeds: what the live fabric
// actually delivers, as opposed to the platform's simulated link
// model. Bandwidths are bytes/sec of application payload (goodput);
// call times are per-collective fixed costs.
type WireStats struct {
	AllToAllBps      float64
	AllGatherBps     float64
	AllReduceBps     float64
	AllToAllCallSec  float64
	AllGatherCallSec float64
}

// MeasureWire runs timed collective trials over the live transport and
// returns wire statistics that are IDENTICAL on every rank. Every rank
// must call it at the same point (it is itself a sequence of
// collectives). bytesPerPeer sizes each trial payload; more trials
// smooth scheduler noise.
//
// Determinism across ranks: wall-clock timings differ per rank, so
// after the trials the ranks exchange their local measurements and
// take the element-wise maximum of the per-trial durations
// (conservative: the collective is only as fast as its slowest rank —
// which is also exactly the lockstep semantics). Planning decisions
// derived from the result therefore agree bit-for-bit on all ranks,
// preserving the engine's identical-plan invariant.
//
//apt:allow simclock measuring the real wire is this function's entire purpose; results flow into planner profiles, never into the simulated clocks directly
func MeasureWire(c *comm.Comm, rank, bytesPerPeer, trials int) WireStats {
	if bytesPerPeer <= 0 {
		bytesPerPeer = 1 << 20
	}
	if trials <= 0 {
		trials = 3
	}
	n := c.NumDevices()
	cols := bytesPerPeer / 4
	if cols < 1 {
		cols = 1
	}
	mat := tensor.FromData(1, cols, make([]float32, cols))
	for i := range mat.Data {
		mat.Data[i] = float32(i%7) * 0.25
	}
	outs := make([]comm.Payload, n)
	for j := range outs {
		outs[j] = comm.Payload{Mat: mat}
	}
	// The ring trial reduces in place; a scratch copy keeps mat's values
	// stable for the gather trials.
	ringBuf := make([]float32, cols)

	// local[t*3+k] = this rank's duration of trial t for collective k
	// (0=alltoall, 1=allgather, 2=allreduce-proxy).
	local := make([]float32, 0, trials*3)
	for t := 0; t < trials; t++ {
		start := time.Now()
		c.AllToAllNoCharge(rank, outs)
		a2a := time.Since(start).Seconds()

		start = time.Now()
		c.AllGatherNoCharge(rank, comm.Payload{Mat: mat})
		ag := time.Since(start).Seconds()

		// AllReduce runs the real ring data plane (chunked reduce-scatter
		// + allgather), so its measured bandwidth reflects the ring's
		// serialization and hop pattern, not the gather's.
		start = time.Now()
		c.RingAllReduceData(rank, ringBuf, nil)
		ar := time.Since(start).Seconds()

		local = append(local, float32(a2a), float32(ag), float32(ar))
	}

	// Cross-rank agreement: element-wise max over all ranks' samples.
	agreed := make([]float32, len(local))
	copy(agreed, local)
	for _, p := range c.AllGatherNoCharge(rank, comm.Payload{Mat: tensor.FromData(1, len(local), local)}) {
		for i, v := range p.Mat.Data {
			if v > agreed[i] {
				agreed[i] = v
			}
		}
	}

	perPeer := float64(bytesPerPeer/4) * 4 // actual matrix bytes
	volume := perPeer * float64(n-1)       // bytes each rank sends per collective
	best := func(k int) float64 {          // fastest agreed trial, sec
		b := math.Inf(1)
		for t := 0; t < trials; t++ {
			if v := float64(agreed[t*3+k]); v < b {
				b = v
			}
		}
		return b
	}
	bps := func(sec float64) float64 {
		if sec <= 0 {
			return math.Inf(1)
		}
		return volume / sec
	}
	a2a, ag, ar := best(0), best(1), best(2)
	// The ring moves 2·(n-1)/n of the vector per rank, not the gather's
	// (n-1)× volume; its goodput is that wire over the measured time.
	ringWire := 2 * perPeer * float64(n-1) / float64(n)
	arBps := math.Inf(1)
	if ar > 0 {
		arBps = ringWire / ar
	}
	return WireStats{
		AllToAllBps:      bps(a2a),
		AllGatherBps:     bps(ag),
		AllReduceBps:     arBps,
		AllToAllCallSec:  0.1 * a2a, // attribute ~10% of the best trial to fixed call cost
		AllGatherCallSec: 0.1 * ag,
	}
}

// ApplyTo overlays the measured wire speeds on base and returns a new
// profile: collective bandwidths and call latencies come from the
// wire, while the memory-subsystem fields (UVA/peer/GPU read) keep the
// base model's values — the wire says nothing about them. Feed the
// result to core's planner (Task.ProfileOverride) to cost strategies
// against observed transport speeds.
func (w WireStats) ApplyTo(base *comm.Profile) *comm.Profile {
	p := *base
	if w.AllToAllBps > 0 && !math.IsInf(w.AllToAllBps, 0) {
		p.AllToAllBps = w.AllToAllBps
	}
	if w.AllGatherBps > 0 && !math.IsInf(w.AllGatherBps, 0) {
		p.AllGatherBps = w.AllGatherBps
	}
	if w.AllReduceBps > 0 && !math.IsInf(w.AllReduceBps, 0) {
		p.AllReduceBps = w.AllReduceBps
	}
	if w.AllToAllCallSec > 0 {
		p.AllToAllCallSec = w.AllToAllCallSec
	}
	if w.AllGatherCallSec > 0 {
		p.AllGatherCallSec = w.AllGatherCallSec
	}
	return &p
}
