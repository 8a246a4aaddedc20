package engine

import (
	"repro/internal/device"
	"repro/internal/sample"
)

// Pipelined execution (GNNLab/DSP-style overlap): each worker runs a
// prefetch goroutine that samples mini-batch t+1 while batch t
// computes, bounded by a channel of depth Config.PipelineDepth. The
// collectives keep their lockstep contract — only sampling leaves the
// worker goroutine — and each worker's sampler still draws batches in
// sequential order on a single goroutine, so real-mode training is
// bit-identical to the synchronous path.
//
// On top of the real overlap, the simulated clocks are folded into an
// overlapped schedule per worker:
//
//	sampleDone[t]  = max(sampleDone[t-1], computeStart[t-depth]) + sampleSec[t]
//	computeStart[t] = max(computeDone[t-1], sampleDone[t])
//	computeDone[t]  = computeStart[t] + computeSec[t]
//
// where the computeStart[t-depth] term models the bounded prefetch
// queue: slot t frees only when compute picks up batch t-depth. The
// worker's measured epoch is computeDone[last]; EpochStats reports the
// max across workers as MeasuredPipelinedSec, next to the analytic
// PipelinedTime() upper-bound estimate. The schedule never beats
// perfect overlap (sampling and compute are the two pipeline legs) and
// never exceeds the synchronous EpochTime, since each worker's
// overlapped finish is at most its own stage-time sum.

// defaultPipelineDepth bounds prefetch when Config.PipelineDepth is 0.
const defaultPipelineDepth = 2

func (e *Engine) pipelineDepth() int {
	if d := e.cfg.PipelineDepth; d > 0 {
		return d
	}
	return defaultPipelineDepth
}

// runPrefetcher draws the worker's whole epoch in step order, charging
// the sample clock as it goes, and feeds the bounded channel. It owns
// the worker's sampler for the duration of the epoch; stats counters
// stay with the compute loop so the two goroutines never share mutable
// state.
func (e *Engine) runPrefetcher(w *worker, plan *sample.SeedPlan, numBatches int, out chan<- batch) {
	defer close(out)
	for step := 0; step < numBatches; step++ {
		if w.stopPrefetch.Load() {
			return // compute loop agreed on cancellation
		}
		out <- e.drawBatch(w, plan, step)
	}
}

// overlapSchedule folds one worker's per-step simulated times into the
// overlapped schedule of the recurrence above.
type overlapSchedule struct {
	dev          *device.Device
	depth        int
	prevCompute  float64
	sampleDone   []float64
	computeStart []float64
	computeDone  []float64
}

func newOverlapSchedule(dev *device.Device, numBatches, depth int) *overlapSchedule {
	return &overlapSchedule{
		dev: dev, depth: depth, prevCompute: dev.ComputeElapsed(),
		sampleDone:   make([]float64, numBatches),
		computeStart: make([]float64, numBatches),
		computeDone:  make([]float64, numBatches),
	}
}

// place schedules step t, whose compute just finished on the device
// clocks and whose sampling cost sampleSec, and returns when its
// sampling ends and its compute starts.
func (s *overlapSchedule) place(t int, sampleSec float64) (sampleDone, computeStart float64) {
	cur := s.dev.ComputeElapsed()
	computeSec := cur - s.prevCompute
	s.prevCompute = cur

	var prevSample, slotFree, prevDone float64
	if t > 0 {
		prevSample = s.sampleDone[t-1]
		prevDone = s.computeDone[t-1]
	}
	if t-s.depth >= 0 {
		slotFree = s.computeStart[t-s.depth]
	}
	s.sampleDone[t] = maxf64(prevSample, slotFree) + sampleSec
	s.computeStart[t] = maxf64(prevDone, s.sampleDone[t])
	s.computeDone[t] = s.computeStart[t] + computeSec
	return s.sampleDone[t], s.computeStart[t]
}
