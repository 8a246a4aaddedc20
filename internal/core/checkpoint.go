package core

import (
	"fmt"
	"path/filepath"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/strategy"
)

// Checkpoint/restore orchestration. A snapshot captures the full
// training state at an epoch boundary — parameters, optimizer moments,
// RNG stream cursors, epoch counter, the dry-run frequency vector the
// caches were configured from, and the active plan — so a resumed run
// is bit-identical to the uninterrupted one: the engine is
// deterministic given its RNG streams, and everything else restored
// here is exactly the state those streams act on.
//
// Two resume shapes fall out of one snapshot:
//
//   - Same topology: the recorded plan, cache frequencies, and RNG
//     cursors are adopted wholesale. Planning is skipped and training
//     continues as if never interrupted.
//   - Elastic (different device count): parameters, optimizer moments,
//     and the epoch counter survive; the plan and cursors cannot (they
//     are functions of the worker layout), so Prepare/Plan re-run on
//     the new topology and training warm-starts from the snapshot's
//     weights.

// CheckpointFile writes the training state as of the last completed
// epoch of the most recently built engine to an atomically-replaced
// file. Call it between epochs (or after Train returns); it is not safe
// while an epoch is in flight.
func (a *APT) CheckpointFile(path string) error {
	snap, err := a.snapshot()
	if err != nil {
		return err
	}
	return snap.WriteFile(path)
}

// snapshot captures the current training state (the value
// CheckpointFile writes).
func (a *APT) snapshot() (*checkpoint.Snapshot, error) {
	if a.lastEngine == nil {
		return nil, fmt.Errorf("core: nothing to checkpoint: no engine has been built")
	}
	return a.buildSnapshot(a.lastEngine, a.lastKind)
}

// buildSnapshot captures the training state from the engine's first
// hosted replica. It is a COLLECTIVE: every rank must call it at the
// same epoch boundary (the sampler cursors are exchanged over the
// fabric), and since replicas are synchronized, every rank builds the
// identical snapshot — rank 0 persists it.
func (a *APT) buildSnapshot(e *engine.Engine, k strategy.Kind) (*checkpoint.Snapshot, error) {
	samplerRNG, epochRNG, err := e.RNGCursors()
	if err != nil {
		return nil, err
	}
	local := e.Ranks()[0]
	s := &checkpoint.Snapshot{
		Strategy:   k.String(),
		Int8Frac:   a.int8Frac,
		Seed:       a.task.Seed,
		Devices:    a.task.Platform.NumDevices(),
		EpochsDone: a.epochBase + e.EpochsRun(),
		Model:      checkpoint.EncodeModel(e.Model(local)),
		SamplerRNG: samplerRNG,
		EpochRNG:   epochRNG,
	}
	if so, ok := e.Optimizer(local).(nn.StatefulOptimizer); ok {
		st := so.State(e.Model(local).Params())
		s.Opt = &st
	}
	if a.dryRun != nil {
		s.Freq = a.dryRun.Freq
	}
	if a.replanner != nil {
		// Carry the live re-planner's learned state so a resumed
		// TrainAdaptive keeps its calibration. Without one there is
		// nothing learned: a cold re-planner is what a resumed
		// TrainAdaptive builds anyway.
		st := a.replanner.State()
		s.Adaptive = &st
	}
	return s, nil
}

// maybeCheckpoint writes the rolling snapshot (checkpoint.DefaultName
// inside CheckpointDir) at an epoch boundary when the system was
// configured with a checkpoint directory. Every rank builds the
// snapshot (a collective); only the process hosting rank 0 writes it.
func (a *APT) maybeCheckpoint(e *engine.Engine, k strategy.Kind) error {
	if a.CheckpointDir == "" {
		return nil
	}
	snap, err := a.buildSnapshot(e, k)
	if err != nil || e.Ranks()[0] != 0 {
		return err
	}
	return snap.WriteFile(filepath.Join(a.CheckpointDir, checkpoint.DefaultName))
}

// ResumeFile reconstructs an APT from the snapshot file at path. task
// must be the same experiment the snapshot came from (the seed is
// validated; the graph, model factory, and hyperparameters are the
// caller's contract, exactly as they are across ranks of a distributed
// run).
//
// When task's device count matches the snapshot's, the recorded plan
// and cache frequencies are adopted, planning is skipped, and the
// first engine built restores parameters, optimizer moments, and RNG
// cursors — Train then continues bit-identically. When the device
// count differs (elastic resume), Prepare and Plan re-run on the new
// topology and only parameters, optimizer moments, and the epoch
// counter carry over.
//
// Train's epoch argument counts TOTAL epochs for the experiment: a run
// resumed at epoch 3 with Train(10) trains 7 more.
func ResumeFile(task Task, path string, opts ...obs.Option) (*APT, error) {
	snap, err := checkpoint.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return resume(task, snap, opts...)
}

func resume(task Task, snap *checkpoint.Snapshot, opts ...obs.Option) (*APT, error) {
	a, err := New(task, opts...)
	if err != nil {
		return nil, err
	}
	if snap.Seed != a.task.Seed {
		return nil, fmt.Errorf("core: snapshot is from seed %d, task has seed %d", snap.Seed, a.task.Seed)
	}
	kind, err := snap.Kind()
	if err != nil {
		return nil, err
	}
	a.resume = snap
	a.epochBase = snap.EpochsDone
	if snap.Devices != a.task.Platform.NumDevices() {
		// Elastic resume: the plan and RNG cursors are functions of the
		// worker layout, so Train re-plans; consumeResume will restore
		// only topology-independent state.
		return a, nil
	}
	if err := a.Prepare(); err != nil {
		return nil, err
	}
	if snap.Freq != nil {
		a.dryRun = &DryRunStats{Freq: snap.Freq}
	}
	// A resumed TrainAdaptive derives the dry run's per-strategy epochs
	// again and hands its re-planner the learned state recorded here.
	a.resumeReplan = snap.Adaptive
	a.Choice = kind
	a.int8Frac = snap.Int8Frac
	// The plan is adopted, not recomputed: Plan() short-circuits on
	// planned, so Train goes straight to the recorded strategy.
	a.planned = true
	return a, nil
}

// EpochBase reports how many epochs were already complete when this
// APT was constructed — zero for a fresh run, the snapshot's epoch
// counter after ResumeFile. A training run's first epoch is EpochBase()+1.
func (a *APT) EpochBase() int {
	return a.epochBase
}

// consumeResume restores the pending snapshot's training state into
// the run's first engine — parameters into every hosted replica,
// optimizer moments into each one's optimizer, and, when the topology
// matches, the RNG stream cursors — and clears it, so engines rebuilt
// later in the same run (re-planner switches) start from their live
// adopted parameters instead. A no-op when the APT did not come from
// ResumeFile.
func (a *APT) consumeResume(e *engine.Engine) error {
	snap := a.resume
	if snap == nil {
		return nil
	}
	for _, d := range e.Ranks() {
		if err := checkpoint.DecodeModel(e.Model(d), snap.Model); err != nil {
			return fmt.Errorf("core: resume device %d params: %w", d, err)
		}
		if snap.Opt == nil {
			continue
		}
		if so, ok := e.Optimizer(d).(nn.StatefulOptimizer); ok {
			if err := so.Restore(e.Model(d).Params(), *snap.Opt); err != nil {
				return fmt.Errorf("core: resume device %d optimizer: %w", d, err)
			}
		}
	}
	if snap.HasRNG() && snap.Devices == a.task.Platform.NumDevices() {
		if err := e.SetRNGCursors(snap.SamplerRNG, snap.EpochRNG); err != nil {
			return fmt.Errorf("core: resume rng cursors: %w", err)
		}
	}
	a.resume = nil
	return nil
}
