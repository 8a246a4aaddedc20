package checkpoint

import (
	"fmt"
	"math"

	"repro/internal/transport"
)

// AdaptiveState is the online re-planner's learned state. Carrying it
// in the snapshot lets a resumed TrainAdaptive keep the calibration it
// had already learned instead of starting cold. The per-strategy
// dry-run statistics the re-planner selects over are not here: they
// are a function of the task and its seed, so a resumed run derives
// them again. The calibration factors are flattened here
// (core.Calibration cannot be imported without a cycle).
type AdaptiveState struct {
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
}

// encodeAdaptive renders the adaptive section body: u32 cooldown, then
// the four calibration factors and the overlap as f64 bits.
func encodeAdaptive(a *AdaptiveState) []byte {
	var e transport.Encoder
	e.U32(uint32(a.Cooldown))
	for _, f := range [5]float64{a.CalBuild, a.CalLoadHost, a.CalShuffle, a.CalTrain, a.GradOverlap} {
		e.U64(math.Float64bits(f))
	}
	return e.B
}

func (s *Snapshot) decodeAdaptive(body []byte) error {
	d := transport.NewDecoder(body)
	a := &AdaptiveState{Cooldown: int(d.U32())}
	for _, p := range [5]*float64{&a.CalBuild, &a.CalLoadHost, &a.CalShuffle, &a.CalTrain, &a.GradOverlap} {
		*p = math.Float64frombits(d.U64())
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
