// Package device provides the simulated GPU runtime: each Device owns
// a simulated clock split into named stage buckets (sample, build,
// load, train — the paper's Eq. 2 decomposition) and a device-memory
// arena with capacity accounting. One goroutine drives each device
// during parallel execution; a Device's methods are safe for use only
// from its owning goroutine unless noted.
package device

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/hardware"
)

// Stage names matching the paper's cost decomposition T = T_build +
// T_load + T_shuffle + T_train (sampling is reported inside T_build's
// "sampling" bucket in the figures).
const (
	StageSample  = "sample"
	StageBuild   = "build"   // permute + subgraph shuffle
	StageLoad    = "load"    // input feature loading
	StageTrain   = "train"   // model compute
	StageShuffle = "shuffle" // hidden-embedding shuffle (reported inside train in figures)
)

// StepStages lists the stages of one mini-batch step in execution
// order.
var StepStages = [5]string{StageSample, StageBuild, StageLoad, StageTrain, StageShuffle}

// Device is one simulated GPU.
type Device struct {
	ID      int
	Machine int

	mu      sync.Mutex
	clock   map[string]float64
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
			ID:      d,
			Machine: p.MachineOf(d),
			clock:   map[string]float64{},
			memCap:  p.GPUMemBytes,
		})
	}
	return g
}

// Charge adds secs of simulated time to the named stage bucket.
// Safe for concurrent use. Called for every kernel and collective on
// the training loop.
//
//apt:hotpath
func (d *Device) Charge(stage string, secs float64) {
	d.mu.Lock()
	d.clock[stage] += secs
	d.mu.Unlock()
}

// Elapsed returns the accumulated simulated seconds for a stage.
func (d *Device) Elapsed(stage string) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.clock[stage]
}

// ComputeElapsed sums the compute-side stage clocks — every stage but
// sampling, which a concurrent prefetcher may charge, so this axis is
// owned by the compute goroutine alone. Collective spans and the
// pipelined schedule live on it. The order build + load + train +
// shuffle is fixed: float addition does not associate, and span start
// times are compared bit for bit.
func (d *Device) ComputeElapsed() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.clock[StageBuild] + d.clock[StageLoad] + d.clock[StageTrain] + d.clock[StageShuffle]
}

// TotalElapsed sums all stage buckets. Buckets are added in sorted
// stage order: float addition does not associate, so summing in map
// iteration order would make the total's low bits vary run to run and
// break the deterministic-trace guarantee (caught by aptlint/detrange).
func (d *Device) TotalElapsed() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	stages := make([]string, 0, len(d.clock))
	for s := range d.clock {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	var t float64
	for _, s := range stages {
		t += d.clock[s]
	}
	return t
}

// ResetClock clears all stage buckets (between epochs or trials).
func (d *Device) ResetClock() {
	d.mu.Lock()
	d.clock = map[string]float64{}
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

// StageMax returns, for each named stage, the maximum accumulated time
// across devices — the synchronous-execution epoch decomposition.
func (g *Group) StageMax(stages ...string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range stages {
		for _, d := range g.Devices {
			if e := d.Elapsed(s); e > out[s] {
				out[s] = e
			}
		}
	}
	return out
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
