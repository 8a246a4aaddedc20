package core

import (
	"bytes"
	"fmt"
	"io"
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

// Checkpoint writes the training state as of the last completed epoch
// of the most recently built engine. Call it between epochs (or after
// Train returns); it is not safe while an epoch is in flight.
func (a *APT) Checkpoint(w io.Writer) error {
	snap, err := a.Snapshot()
	if err != nil {
		return err
	}
	return snap.Write(w)
}

// CheckpointFile is Checkpoint to an atomically-replaced file.
func (a *APT) CheckpointFile(path string) error {
	snap, err := a.Snapshot()
	if err != nil {
		return err
	}
	return snap.WriteFile(path)
}

// Snapshot captures the current training state as a checkpoint
// snapshot (the value Checkpoint serializes).
func (a *APT) Snapshot() (*checkpoint.Snapshot, error) {
	if a.lastEngine == nil {
		return nil, fmt.Errorf("core: nothing to checkpoint: no engine has been built")
	}
	return a.buildSnapshot(a.lastEngine, a.lastKind)
}

// buildSnapshot captures the training state from the engine's first
// hosted replica. It is a COLLECTIVE: every rank must call
// Checkpoint/Snapshot at the same epoch boundary (the sampler cursors
// are exchanged over the fabric), and since replicas are synchronized,
// every rank builds the identical snapshot — convention is that rank 0
// persists it.
func (a *APT) buildSnapshot(e *engine.Engine, k strategy.Kind) (*checkpoint.Snapshot, error) {
	samplerRNG, epochRNG, err := e.RNGCursors()
	if err != nil {
		return nil, err
	}
	local := e.Ranks()[0]
	var buf bytes.Buffer
	if err := e.Model(local).SaveParams(&buf); err != nil {
		return nil, err
	}
	s := &checkpoint.Snapshot{
		Strategy:   k.String(),
		Pipelined:  a.task.Pipeline,
		Int8Frac:   a.int8Frac,
		Seed:       a.task.Seed,
		Devices:    a.task.Platform.NumDevices(),
		EpochsDone: a.epochBase + e.EpochsRun(),
		Model:      buf.Bytes(),
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
	if a.dryRun != nil && a.dryRun.PerStrategy != nil {
		// Carry the planner's inputs and learned state so a resumed
		// TrainAdaptive keeps re-planning online. Outside an adaptive run
		// there is no live re-planner; the state is then the task's
		// dry-run split with cold calibration, which is exactly what a
		// fresh re-planner over these stats would start from.
		st := ReplanState{BaseFrac: a.task.Int8CacheFrac}
		if a.replanner != nil {
			st = a.replanner.State()
		}
		s.Adaptive = &checkpoint.AdaptiveState{
			BaseFrac:    st.BaseFrac,
			Cooldown:    st.Cooldown,
			CalBuild:    st.Cal.Build,
			CalLoadHost: st.Cal.LoadHost,
			CalShuffle:  st.Cal.Shuffle,
			CalTrain:    st.Cal.Train,
			GradOverlap: st.GradOverlap,
			PerStrategy: a.dryRun.PerStrategy,
		}
	}
	return s, nil
}

// maybeCheckpoint writes a snapshot when the system was configured
// with a checkpoint directory and the completed-epoch count hits the
// cadence: the single rolling file by default, or — with
// CheckpointRetain set — an epoch-stamped file followed by pruning to
// the newest CheckpointRetain.
func (a *APT) maybeCheckpoint(e *engine.Engine, k strategy.Kind) error {
	if a.CheckpointDir == "" {
		return nil
	}
	every := a.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	done := a.epochBase + e.EpochsRun()
	if done == 0 || done%every != 0 {
		return nil
	}
	snap, err := a.buildSnapshot(e, k)
	if err != nil {
		return err
	}
	if a.CheckpointRetain > 0 {
		if err := snap.WriteFile(filepath.Join(a.CheckpointDir, checkpoint.SnapshotName(done))); err != nil {
			return err
		}
		return checkpoint.Prune(a.CheckpointDir, a.CheckpointRetain)
	}
	return snap.WriteFile(filepath.Join(a.CheckpointDir, checkpoint.DefaultName))
}

// Resume reconstructs an APT from a snapshot stream. task must be the
// same experiment the snapshot came from (the seed is validated; the
// graph, model factory, and hyperparameters are the caller's contract,
// exactly as they are across ranks of a distributed run).
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
func Resume(task Task, r io.Reader, opts ...obs.Option) (*APT, error) {
	snap, err := checkpoint.Read(r)
	if err != nil {
		return nil, err
	}
	return resume(task, snap, opts...)
}

// ResumeFile is Resume from a snapshot file.
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
		// worker layout, so Train re-plans; ApplyResume will restore
		// only topology-independent state.
		return a, nil
	}
	if err := a.Prepare(); err != nil {
		return nil, err
	}
	if snap.Freq != nil {
		a.dryRun = &DryRunStats{Freq: snap.Freq}
	}
	if snap.Adaptive != nil {
		// The per-strategy dry-run stats and the re-planner's learned
		// state ride in the snapshot, so a resumed TrainAdaptive keeps
		// re-planning online with the calibration it had already earned.
		if a.dryRun == nil {
			a.dryRun = &DryRunStats{}
		}
		a.dryRun.PerStrategy = snap.Adaptive.PerStrategy
		a.resumeReplan = &ReplanState{
			BaseFrac: snap.Adaptive.BaseFrac,
			Cooldown: snap.Adaptive.Cooldown,
			Cal: Calibration{
				Build:    snap.Adaptive.CalBuild,
				LoadHost: snap.Adaptive.CalLoadHost,
				Shuffle:  snap.Adaptive.CalShuffle,
				Train:    snap.Adaptive.CalTrain,
			},
			GradOverlap: snap.Adaptive.GradOverlap,
		}
	}
	a.Choice = kind
	a.int8Frac = snap.Int8Frac
	// The plan is adopted, not recomputed: Plan() short-circuits on
	// planned, so Train goes straight to the recorded strategy.
	a.planned = true
	return a, nil
}

// EpochBase reports how many epochs were already complete when this
// APT was constructed — zero for a fresh run, the snapshot's epoch
// counter after Resume. Callers driving the epoch loop themselves
// start at EpochBase()+1 and run to their TOTAL epoch target.
func (a *APT) EpochBase() int {
	return a.epochBase
}

// ApplyResume restores the pending snapshot's training state into an
// engine built from this APT: parameters into every hosted replica,
// optimizer moments into each one's optimizer, and — when the topology
// matches — the RNG stream cursors. Train and TrainAdaptive call it
// automatically on their first engine; callers driving
// BuildEngine/BuildEngineDistributed themselves (e.g. one rank of a
// multi-process run) call it once after building. A no-op when the APT
// did not come from Resume.
func (a *APT) ApplyResume(e *engine.Engine) error {
	snap := a.resume
	if snap == nil {
		return nil
	}
	for _, d := range e.Ranks() {
		if err := e.Model(d).LoadParams(bytes.NewReader(snap.Model)); err != nil {
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
	return nil
}

// consumeResume applies the pending snapshot to the run's first engine
// and clears it, so engines rebuilt later in the same run (re-planner
// switches) start from their live adopted parameters instead.
func (a *APT) consumeResume(e *engine.Engine) error {
	if err := a.ApplyResume(e); err != nil {
		return err
	}
	a.resume = nil
	return nil
}
