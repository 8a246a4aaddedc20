package engine

import (
	"repro/internal/comm"
	"repro/internal/device"
)

// payload aliases comm.Payload; the layer walk builds a lot of them.
type payload = comm.Payload

// allToAll is the worker-scoped collective shorthand; calls are
// counted per stage so the cost model can charge per-call latency.
func (w *worker) allToAll(stage device.Stage, outs []payload) []payload {
	if stage == device.StageBuild {
		w.stats.BuildA2ACalls++
	} else {
		w.stats.ShufA2ACalls++
	}
	return w.eng.Comm.AllToAll(w.dev.ID, stage, outs)
}

// allGather broadcasts p from every worker and returns all payloads.
func (w *worker) allGather(stage device.Stage, p payload) []payload {
	if stage == device.StageBuild {
		w.stats.BuildBcastCalls++
	} else {
		w.stats.ShufBcastCalls++
	}
	return w.eng.Comm.AllGather(w.dev.ID, stage, p)
}
