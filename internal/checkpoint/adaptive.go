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
	// CalBuild/CalLoadHost/CalShuffle are the per-stage
	// measured-over-predicted correction factors of the strategy-unique
	// terms the re-planner compares (0 = not yet observed).
	CalBuild    float64
	CalLoadHost float64
	CalShuffle  float64
}

// encodeAdaptive renders the adaptive section body: u32 cooldown, then
// the three calibration factors as f64 bits.
func encodeAdaptive(a *AdaptiveState) []byte {
	var e transport.Encoder
	e.U32(uint32(a.Cooldown))
	for _, f := range [3]float64{a.CalBuild, a.CalLoadHost, a.CalShuffle} {
		e.U64(math.Float64bits(f))
	}
	return e.B
}

func (s *Snapshot) decodeAdaptive(body []byte) error {
	d := transport.NewDecoder(body)
	a := &AdaptiveState{Cooldown: int(d.U32())}
	factors := [3]*float64{&a.CalBuild, &a.CalLoadHost, &a.CalShuffle}
	for _, p := range factors {
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
	for _, p := range factors {
		// The re-planner multiplies costs by these; a NaN or infinite
		// factor would poison every comparison it enters.
		if f := *p; math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
			return fmt.Errorf("%w: adaptive calibration factor %v", ErrMalformed, f)
		}
	}
	s.Adaptive = a
	return nil
}
