package repro

// Checkpoint/restore surface of the facade (package
// internal/checkpoint). A Snapshot is the versioned, self-describing
// capture of full training state — parameters, optimizer moments, RNG
// cursors, epoch counter, cache frequencies, and the active plan —
// written atomically and durably and verified section-by-section with
// CRCs.
//
// With WithCheckpointDir, Train keeps one rolling snapshot file,
// dir/SnapshotName, rewritten at every epoch boundary; APT.CheckpointFile
// writes one on demand. Come back with ResumeFile:
//
//	apt, _ := repro.NewAPT(task, repro.WithCheckpointDir(dir))
//	apt.Train(10)                                  // dies at epoch 6
//	apt, _ = repro.ResumeFile(task, dir+"/"+repro.SnapshotName)
//	apt.Train(10)                                  // runs epochs 7-10,
//	                                               // bit-identical
//
// Resuming onto a different device count is elastic: parameters and
// optimizer state carry over, and APT re-plans for the new topology.

import (
	"repro/internal/checkpoint"
	"repro/internal/core"
)

// Snapshot is a versioned capture of full training state; see
// APT.CheckpointFile and ResumeFile.
type Snapshot = checkpoint.Snapshot

// SnapshotName is the rolling snapshot's file name inside the
// WithCheckpointDir directory.
const SnapshotName = checkpoint.DefaultName

// ReadSnapshotFile decodes a snapshot file, verifying framing and
// CRCs; errors name the file and wrap the typed errors of
// internal/checkpoint.
var ReadSnapshotFile = checkpoint.ReadFile

// ResumeFile reconstructs an APT from a snapshot file; task must be
// the same experiment the snapshot came from. Train's epoch argument
// counts TOTAL epochs, so the resumed run finishes the original
// target. See core.ResumeFile for the topology-match rules.
func ResumeFile(task Task, path string, opts ...Option) (*APT, error) {
	a, err := core.ResumeFile(task, path, obsOf(opts)...)
	if err != nil {
		return nil, err
	}
	applyAPT(a, opts)
	return a, nil
}
