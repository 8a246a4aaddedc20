package engine

import (
	"repro/internal/device"
	"repro/internal/obs"
)

// Per-step stage time has one record, the span: when span collection
// is on, training and serving read the device's clock around every
// step (or serving batch) and emit the per-stage differences as
// spans. Everything per-step — the Chrome trace, the text bars and the
// step table in internal/trace — is a view over those spans.

// emitStepSpans puts one step on span tracks: its sampling, lasting
// sampleSec, on smp at sampleAt, and its other stages end to end in
// step order on dev from computeAt, lasting their times in d, the load
// span carrying loadBytes. It returns where the last stage ends.
func emitStepSpans(smp, dev *obs.Track, step int, sampleAt, sampleSec, computeAt float64, d device.Clock, loadBytes int64) float64 {
	smp.Emit(string(device.StageSample), step, sampleAt, sampleSec, 0)
	cur := computeAt
	for i, s := range device.Stages {
		var bytes int64
		switch s {
		case device.StageSample:
			continue
		case device.StageLoad:
			bytes = loadBytes
		}
		dev.Emit(string(s), step, cur, d[i], bytes)
		cur += d[i]
	}
	return cur
}
