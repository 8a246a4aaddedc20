package checkpoint

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/engine"
	"repro/internal/strategy"
	"repro/internal/transport"
)

// AdaptiveState is the online re-planner's learned state plus the
// per-strategy dry-run statistics the planner selects over. Carrying
// both in the snapshot lets a resumed TrainAdaptive keep re-planning —
// and keep the calibration it had already learned — instead of holding
// the recorded plan frozen. The calibration factors are flattened here
// (core.Calibration cannot be imported without a cycle); core converts.
//
// Per-device stats are captured in full because the cost model compares
// per-device maxima (load imbalance).
type AdaptiveState struct {
	// BaseFrac is the warm-tier split the dry-run volumes were
	// collected under.
	BaseFrac float64
	// Cooldown is the re-planner's remaining hysteresis epochs.
	Cooldown int
	// CalBuild/CalLoadHost/CalShuffle/CalTrain are the per-stage
	// measured-over-predicted correction factors (0 = not yet observed).
	CalBuild    float64
	CalLoadHost float64
	CalShuffle  float64
	CalTrain    float64
	// GradOverlap is the measured hidden fraction of the gradient
	// allreduce under the engine's backward-overlapped bucketing.
	GradOverlap float64
	// PerStrategy holds each strategy's dry-run accounting epoch.
	PerStrategy map[strategy.Kind]engine.EpochStats
}

// encodeAdaptive renders the adaptive section body. Strategies are
// emitted in ascending Kind order so the encoding is canonical.
func encodeAdaptive(a *AdaptiveState) []byte {
	var e transport.Encoder
	e.U64(math.Float64bits(a.BaseFrac))
	e.U32(uint32(a.Cooldown))
	for _, f := range [5]float64{a.CalBuild, a.CalLoadHost, a.CalShuffle, a.CalTrain, a.GradOverlap} {
		e.U64(math.Float64bits(f))
	}
	kinds := make([]strategy.Kind, 0, len(a.PerStrategy))
	for k := range a.PerStrategy {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	e.U32(uint32(len(kinds)))
	for _, k := range kinds {
		e.Bytes([]byte(k.String()))
		st := a.PerStrategy[k]
		encodeEpochStats(&e, &st)
	}
	return e.B
}

func encodeEpochStats(e *transport.Encoder, st *engine.EpochStats) {
	for _, f := range [7]float64{st.SampleSec, st.BuildSec, st.LoadSec, st.TrainSec,
		st.ShuffleSec, st.MeasuredPipelinedSec, st.MeanLoss} {
		e.U64(math.Float64bits(f))
	}
	e.U32(uint32(st.NumBatches))
	if st.OOM {
		e.U8(1)
	} else {
		e.U8(0)
	}
	encodeWorkerStats(e, &st.Totals)
	e.U32(uint32(len(st.PerDevice)))
	for i := range st.PerDevice {
		encodeWorkerStats(e, &st.PerDevice[i])
	}
}

func encodeWorkerStats(e *transport.Encoder, ws *engine.WorkerStats) {
	e.U32(uint32(len(ws.Load.Nodes)))
	for _, v := range ws.Load.Nodes {
		e.I64(v)
	}
	for _, v := range ws.Load.Bytes {
		e.I64(v)
	}
	e.U64(math.Float64bits(ws.Load.Seconds))
	for _, v := range [12]int64{ws.GraphA2ABytes, ws.GraphBcastBytes,
		ws.HiddenA2ABytes, ws.HiddenBcastBytes,
		ws.BuildA2ACalls, ws.BuildBcastCalls, ws.ShufA2ACalls, ws.ShufBcastCalls,
		ws.VirtualNodes, ws.Layer1Dst, ws.SampledEdges, ws.SeedsProcessed} {
		e.I64(v)
	}
	for _, f := range [3]float64{ws.LossSum, ws.GradCommSec, ws.GradExposedSec} {
		e.U64(math.Float64bits(f))
	}
}

func (s *Snapshot) decodeAdaptive(body []byte) error {
	d := transport.NewDecoder(body)
	a := &AdaptiveState{}
	a.BaseFrac = math.Float64frombits(d.U64())
	a.Cooldown = int(d.U32())
	for _, p := range [5]*float64{&a.CalBuild, &a.CalLoadHost, &a.CalShuffle, &a.CalTrain, &a.GradOverlap} {
		*p = math.Float64frombits(d.U64())
	}
	n := int(d.U32())
	// Each strategy entry is at least a 4-byte name prefix plus the
	// fixed stats frame, so a count beyond the remaining bytes is a
	// corrupt length, not a big snapshot.
	if d.Err() == nil && n > d.Remaining()/4+1 {
		return fmt.Errorf("%w: adaptive section claims %d strategies, %d bytes remain",
			ErrMalformed, n, d.Remaining())
	}
	var last strategy.Kind
	for i := 0; i < n && d.Err() == nil; i++ {
		name := string(d.TakeBytes())
		k, err := strategy.Parse(name)
		if err != nil {
			return fmt.Errorf("%w: adaptive: %v", ErrMalformed, err)
		}
		if k.String() != name || (i > 0 && k <= last) {
			// Canonical names in strictly ascending order, or the
			// encoding would not be unique.
			return fmt.Errorf("%w: adaptive strategy %q duplicated, out of order, or non-canonical",
				ErrMalformed, name)
		}
		last = k
		st, err := decodeEpochStats(d)
		if err != nil {
			return err
		}
		if a.PerStrategy == nil {
			a.PerStrategy = map[strategy.Kind]engine.EpochStats{}
		}
		a.PerStrategy[k] = st
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: adaptive: %v", ErrMalformed, err)
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d bytes after adaptive state", ErrMalformed, d.Remaining())
	}
	if a.Cooldown < 0 {
		return fmt.Errorf("%w: adaptive cooldown %d", ErrMalformed, a.Cooldown)
	}
	s.Adaptive = a
	return nil
}

func decodeEpochStats(d *transport.Decoder) (engine.EpochStats, error) {
	var st engine.EpochStats
	for _, p := range [7]*float64{&st.SampleSec, &st.BuildSec, &st.LoadSec, &st.TrainSec,
		&st.ShuffleSec, &st.MeasuredPipelinedSec, &st.MeanLoss} {
		*p = math.Float64frombits(d.U64())
	}
	st.NumBatches = int(d.U32())
	switch d.U8() {
	case 0:
	case 1:
		st.OOM = true
	default:
		if d.Err() == nil {
			return st, fmt.Errorf("%w: adaptive oom byte not 0/1", ErrMalformed)
		}
	}
	if err := decodeWorkerStats(d, &st.Totals); err != nil {
		return st, err
	}
	n := int(d.U32())
	// A worker-stats frame is >= 4 bytes (its location count alone).
	if d.Err() == nil && n > d.Remaining()/4+1 {
		return st, fmt.Errorf("%w: adaptive section claims %d per-device stats, %d bytes remain",
			ErrMalformed, n, d.Remaining())
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		var ws engine.WorkerStats
		if err := decodeWorkerStats(d, &ws); err != nil {
			return st, err
		}
		st.PerDevice = append(st.PerDevice, ws)
	}
	return st, nil
}

func decodeWorkerStats(d *transport.Decoder, ws *engine.WorkerStats) error {
	if n := int(d.U32()); d.Err() == nil && n != len(ws.Load.Nodes) {
		return fmt.Errorf("%w: adaptive load stats carry %d locations, this build has %d",
			ErrMalformed, n, len(ws.Load.Nodes))
	}
	for i := range ws.Load.Nodes {
		ws.Load.Nodes[i] = d.I64()
	}
	for i := range ws.Load.Bytes {
		ws.Load.Bytes[i] = d.I64()
	}
	ws.Load.Seconds = math.Float64frombits(d.U64())
	for _, p := range [12]*int64{&ws.GraphA2ABytes, &ws.GraphBcastBytes,
		&ws.HiddenA2ABytes, &ws.HiddenBcastBytes,
		&ws.BuildA2ACalls, &ws.BuildBcastCalls, &ws.ShufA2ACalls, &ws.ShufBcastCalls,
		&ws.VirtualNodes, &ws.Layer1Dst, &ws.SampledEdges, &ws.SeedsProcessed} {
		*p = d.I64()
	}
	for _, p := range [3]*float64{&ws.LossSum, &ws.GradCommSec, &ws.GradExposedSec} {
		*p = math.Float64frombits(d.U64())
	}
	return nil
}
