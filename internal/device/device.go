// Package device provides the simulated GPU runtime: each Device owns
// a simulated clock split into one bucket per Stage (sample, build,
// load, train, shuffle — the paper's Eq. 2 decomposition) and a
// device-memory arena with capacity accounting. One goroutine drives
// each device during parallel execution; a Device's methods are safe
// for use only from its owning goroutine unless noted.
package device

import (
	"fmt"
	"sync"

	"repro/internal/hardware"
)

// Stage names one bucket of the simulated clock, matching the paper's
// cost decomposition T = T_build + T_load + T_shuffle + T_train
// (sampling is reported inside T_build's "sampling" bucket in the
// figures). Spans and tables carry the name itself.
type Stage string

// The stages of one mini-batch step.
const (
	StageSample  Stage = "sample"
	StageBuild   Stage = "build"   // permute + subgraph shuffle
	StageLoad    Stage = "load"    // input feature loading
	StageTrain   Stage = "train"   // model compute
	StageShuffle Stage = "shuffle" // hidden-embedding shuffle (reported inside train in figures)
)

// Stages lists the stages in a step's execution order; slot i of a
// Clock holds Stages[i].
var Stages = [...]Stage{StageSample, StageBuild, StageLoad, StageTrain, StageShuffle}

// slot is s's index in a Clock, -1 for a name outside Stages.
func (s Stage) slot() int {
	for i, t := range Stages {
		if t == s {
			return i
		}
	}
	return -1
}

// StageNames lists the stage names in step order.
func StageNames() []string {
	names := make([]string, len(Stages))
	for i, s := range Stages {
		names[i] = string(s)
	}
	return names
}

// Clock is a device's accumulated simulated seconds, one slot per
// stage in step order.
type Clock [len(Stages)]float64

// At returns the seconds on stage s, one of Stages.
func (c Clock) At(s Stage) float64 { return c[s.slot()] }

// Sub returns the per-stage time charged between prev and c.
func (c Clock) Sub(prev Clock) Clock {
	for i := range c {
		c[i] -= prev[i]
	}
	return c
}

// Device is one simulated GPU.
type Device struct {
	ID int

	mu      sync.Mutex
	clock   Clock
	memUsed int64
	memCap  int64
	// oom records that an allocation exceeded capacity (the paper's
	// Fig. 10 NFP observation); execution continues but the flag is
	// surfaced in results.
	oom bool
}

// Group is the set of devices for one run.
type Group struct {
	Platform *hardware.Platform
	Devices  []*Device
}

// NewGroup creates one Device per GPU of the platform.
func NewGroup(p *hardware.Platform) *Group {
	g := &Group{Platform: p}
	for d := 0; d < p.NumDevices(); d++ {
		g.Devices = append(g.Devices, &Device{
			ID:     d,
			memCap: p.GPUMemBytes,
		})
	}
	return g
}

// Charge adds secs of simulated time to the stage's bucket; a name
// outside Stages has no bucket and is charged nowhere. Safe for
// concurrent use. Called for every kernel and collective on the
// training loop.
//
//apt:hotpath
func (d *Device) Charge(s Stage, secs float64) {
	i := s.slot()
	if i < 0 {
		return
	}
	d.mu.Lock()
	d.clock[i] += secs
	d.mu.Unlock()
}

// Clock returns the device's clock. Safe for concurrent use.
func (d *Device) Clock() Clock {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.clock
}

// ComputeElapsed sums the compute-side stage clocks — every stage but
// sampling, which a concurrent prefetcher may charge, so this axis is
// owned by the compute goroutine alone. Collective spans and the
// pipelined schedule live on it. The order build + load + train +
// shuffle is fixed: float addition does not associate, and span start
// times are compared bit for bit.
func (d *Device) ComputeElapsed() float64 {
	c := d.Clock()
	return c.At(StageBuild) + c.At(StageLoad) + c.At(StageTrain) + c.At(StageShuffle)
}

// TotalElapsed sums all stage buckets in the stage names' alphabetical
// order, fixed for the same reason.
func (d *Device) TotalElapsed() float64 {
	c := d.Clock()
	return c.At(StageBuild) + c.At(StageLoad) + c.At(StageSample) + c.At(StageShuffle) + c.At(StageTrain)
}

// ResetClock clears all stage buckets (between epochs or trials).
func (d *Device) ResetClock() {
	d.mu.Lock()
	d.clock = Clock{}
	d.mu.Unlock()
}

// Alloc reserves n bytes of device memory, setting the OOM flag if the
// arena overflows (allocation still proceeds; the simulation keeps
// running so the overflow can be reported like the paper's Fig. 10).
func (d *Device) Alloc(n int64) {
	d.mu.Lock()
	d.memUsed += n
	if d.memUsed > d.memCap {
		d.oom = true
	}
	d.mu.Unlock()
}

// Free releases n bytes.
func (d *Device) Free(n int64) {
	d.mu.Lock()
	d.memUsed -= n
	if d.memUsed < 0 {
		panic(fmt.Sprintf("device %d: negative memory", d.ID))
	}
	d.mu.Unlock()
}

// MemUsed returns current arena usage.
func (d *Device) MemUsed() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.memUsed
}

// OOM reports whether any allocation exceeded device memory.
func (d *Device) OOM() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.oom
}

// StageMax returns, for each stage, the maximum accumulated time
// across devices — the synchronous-execution epoch decomposition.
func (g *Group) StageMax() Clock {
	var mx Clock
	for _, d := range g.Devices {
		for s, e := range d.Clock() {
			if e > mx[s] {
				mx[s] = e
			}
		}
	}
	return mx
}

// AnyOOM reports whether any device overflowed its memory.
func (g *Group) AnyOOM() bool {
	for _, d := range g.Devices {
		if d.OOM() {
			return true
		}
	}
	return false
}

// ResetClocks clears every device's clock.
func (g *Group) ResetClocks() {
	for _, d := range g.Devices {
		d.ResetClock()
	}
}
