package repro

// Checkpoint/restore surface of the facade (package
// internal/checkpoint). A Snapshot is the versioned, self-describing
// capture of full training state — parameters, optimizer moments, RNG
// cursors, epoch counter, cache frequencies, and the active plan —
// written atomically and verified section-by-section with CRCs.
//
// Produce one with APT.Checkpoint / APT.CheckpointFile (or
// continuously with WithCheckpointDir), and come back with Resume:
//
//	apt, _ := repro.NewAPT(task, repro.WithCheckpointDir(dir))
//	apt.Train(10)                                  // dies at epoch 6
//	apt, _ = repro.ResumeFile(task, dir+"/snapshot.aptc")
//	apt.Train(10)                                  // runs epochs 7-10,
//	                                               // bit-identical
//
// Resuming onto a different device count is elastic: parameters and
// optimizer state carry over, and APT re-plans for the new topology.

import (
	"io"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// Snapshot is a versioned capture of full training state; see
// APT.Checkpoint and Resume.
type Snapshot = checkpoint.Snapshot

// SnapshotName is the file name WithCheckpointDir writes inside the
// checkpoint directory.
const SnapshotName = checkpoint.DefaultName

// LatestSnapshot returns the newest snapshot file in a checkpoint
// directory: the highest-epoch stamped file under WithCheckpointRetain,
// or the rolling SnapshotName without it.
var LatestSnapshot = checkpoint.LatestSnapshot

// ReadSnapshot decodes a snapshot from a stream, verifying framing
// and CRCs; the typed errors are in internal/checkpoint.
var ReadSnapshot = checkpoint.Read

// ReadSnapshotFile is ReadSnapshot from a file.
var ReadSnapshotFile = checkpoint.ReadFile

// LoadModelInto restores model parameters from a training snapshot
// file (WithCheckpointDir's rolling snapshot, or APT.CheckpointFile's).
var LoadModelInto = checkpoint.LoadModelInto

// Resume reconstructs an APT from a snapshot stream; task must be the
// same experiment the snapshot came from. Train's epoch argument
// counts TOTAL epochs, so the resumed run finishes the original
// target. See core.Resume for the topology-match rules.
func Resume(task Task, r io.Reader, opts ...Option) (*APT, error) {
	a, err := core.Resume(task, r, obsOf(opts)...)
	if err != nil {
		return nil, err
	}
	applyAPT(a, opts)
	return a, nil
}

// ResumeFile is Resume from a snapshot file.
func ResumeFile(task Task, path string, opts ...Option) (*APT, error) {
	a, err := core.ResumeFile(task, path, obsOf(opts)...)
	if err != nil {
		return nil, err
	}
	applyAPT(a, opts)
	return a, nil
}
