package engine

import (
	"repro/internal/device"
	"repro/internal/obs"
)

// Per-step stage time has one record, the span: when span collection
// is on, the epoch loop snapshots the device's stage clocks around
// every step and emits the deltas as spans. Everything per-step — the
// Chrome trace, the text bars and the step table in internal/trace —
// is a view over those spans.

// stageSnapshot captures a device's cumulative stage clocks, indexed
// like device.StepStages.
type stageSnapshot [5]float64

func snapshotOf(d *device.Device) stageSnapshot {
	var s stageSnapshot
	for i, name := range device.StepStages {
		s[i] = d.Elapsed(name)
	}
	return s
}

// since returns the per-stage time charged between prev and s.
func (s stageSnapshot) since(prev stageSnapshot) stageSnapshot {
	for i := range s {
		s[i] -= prev[i]
	}
	return s
}

// emitStepSpans puts one step on the worker's span tracks: its sampling
// (d[0]) on smp at sampleAt, its compute stages end to end on the
// device track from computeAt. It returns where the last stage ends.
func (w *worker) emitStepSpans(smp *obs.Track, step int, d stageSnapshot, sampleAt, computeAt float64) float64 {
	smp.Emit(device.StepStages[0], step, sampleAt, d[0], 0)
	cur := computeAt
	for i, stage := range device.StepStages[1:] {
		w.spanDev.Emit(stage, step, cur, d[i+1], 0)
		cur += d[i+1]
	}
	return cur
}

func maxf64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
