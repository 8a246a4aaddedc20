package engine

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/nn"
)

// Checkpointable engine state. The engine is deterministic given its
// RNG streams: params and optimizer moments are restored through the
// nn package, and the cursors exported here are the remaining mutable
// state a resumed run needs to draw the same mini-batches the
// uninterrupted run would have drawn. All accessors are safe only
// between epochs (no RunEpoch in flight).

// RNGCursors returns every rank's sampler RNG stream position, in
// rank order, plus the epoch shuffler's. It is a COLLECTIVE: each
// hosted rank allgathers its own cursor, so every rank process of a
// multi-process run must call it at the same epoch boundary. Each
// cursor crosses the wire as eight u32 bit patterns in a Payload.Ints —
// integers survive the codec exactly.
func (e *Engine) RNGCursors() (samplers [][4]uint64, epoch [4]uint64, err error) {
	got := make([][]comm.Payload, len(e.workers))
	comm.RunParallel(len(e.workers), func(i int) {
		w := e.workers[i]
		st := w.sampler.RNGState()
		ints := make([]int32, 8)
		for j, u := range st {
			ints[2*j] = int32(uint32(u))
			ints[2*j+1] = int32(uint32(u >> 32))
		}
		got[i] = e.Comm.AllGatherNoCharge(w.dev.ID, comm.Payload{Ints: ints})
	})
	samplers = make([][4]uint64, len(got[0]))
	for r, p := range got[0] {
		if len(p.Ints) != 8 {
			return nil, epoch, fmt.Errorf("engine: rank %d sent %d cursor words, want 8", r, len(p.Ints))
		}
		for j := range samplers[r] {
			samplers[r][j] = uint64(uint32(p.Ints[2*j])) | uint64(uint32(p.Ints[2*j+1]))<<32
		}
	}
	return samplers, e.epochRNG.State(), nil
}

// SetRNGCursors restores cursors captured by RNGCursors on an engine
// with the same device count; each hosted rank takes its own.
func (e *Engine) SetRNGCursors(samplers [][4]uint64, epoch [4]uint64) error {
	if n := e.cfg.Platform.NumDevices(); len(samplers) != n {
		return fmt.Errorf("engine: %d rng cursors for %d ranks", len(samplers), n)
	}
	for _, w := range e.workers {
		if !w.sampler.SetRNGState(samplers[w.dev.ID]) {
			return fmt.Errorf("engine: sampler %d cursor is the degenerate all-zero state", w.dev.ID)
		}
	}
	if !e.epochRNG.SetState(epoch) {
		return fmt.Errorf("engine: epoch rng cursor is the degenerate all-zero state")
	}
	return nil
}

// Optimizer returns hosted rank dev's optimizer (for checkpointing its
// state; whether it is stateful is the caller's type assertion).
func (e *Engine) Optimizer(dev int) nn.Optimizer { return e.worker(dev).opt }

// EpochsRun counts epochs this engine instance completed in full;
// cancelled epochs do not count, so after a mid-epoch kill the counter
// still names the last epoch boundary — exactly the state a snapshot
// taken there captured.
func (e *Engine) EpochsRun() int { return e.epochsRun }
