package repro_test

import (
	"path/filepath"
	"testing"

	"repro"
)

// TestFacadeCheckpointLifecycle drives describe → plan → train →
// snapshot → resume → serve → hot-swap entirely through the public
// facade: a run checkpointing every epoch is killed at its target,
// resumed to a larger target from the rolling snapshot, and the
// resulting snapshot is then hot-loaded into a live server.
func TestFacadeCheckpointLifecycle(t *testing.T) {
	spec := repro.DatasetPresets(0.04)[1]
	spec.Classes = 8
	spec.HomophilyDegree = 6
	ds := repro.BuildDataset(spec, true)
	newModel := func() *repro.Model {
		return repro.NewGraphSAGE(spec.FeatDim, 16, spec.Classes, 2)
	}
	task := repro.Task{
		Graph:        ds.Graph,
		Feats:        ds.Feats,
		Labels:       ds.Labels,
		FeatDim:      spec.FeatDim,
		Seeds:        ds.TrainSeeds,
		NewModel:     newModel,
		NewOptimizer: func() repro.Optimizer { return repro.NewAdam(0.02) },
		Sampling:     repro.SamplingConfig{Fanouts: []int{8, 8}},
		BatchSize:    64,
		Platform:     repro.WithDevices(repro.SingleMachine8GPU(), 1, 2),
		CacheBytes:   ds.CacheBytesFraction(0.08),
		Seed:         5,
	}

	dir := t.TempDir()
	snapPath := filepath.Join(dir, repro.SnapshotName)

	apt, err := repro.NewAPT(task, repro.WithCheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := apt.Train(2); err != nil {
		t.Fatal(err)
	}
	snap, err := repro.ReadSnapshotFile(snapPath)
	if err != nil {
		t.Fatalf("rolling snapshot unreadable: %v", err)
	}
	if snap.EpochsDone != 2 {
		t.Fatalf("snapshot at epoch %d, want 2", snap.EpochsDone)
	}

	// Resume towards a larger total; Train counts TOTAL epochs.
	apt, err = repro.ResumeFile(task, snapPath, repro.WithCheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	res, err := apt.Train(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 {
		t.Fatalf("resumed run trained %d epochs, want 2 more", len(res.Epochs))
	}

	// Serve a fresh model, then hot-swap the trained snapshot in.
	srv, err := repro.Serve(repro.ServeConfig{
		Graph: ds.Graph, Feats: ds.Feats, Model: newModel(),
		Sampling: task.Sampling, Platform: task.Platform,
		MaxBatch: 16, CacheBytes: task.CacheBytes, Seed: 9,
		NewModel: newModel,
	}, repro.WithReload(snapPath))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.ReloadCheckpoint(); err != nil {
		t.Fatalf("hot-swap from snapshot: %v", err)
	}
	if srv.ModelVersion() != 1 {
		t.Fatalf("model version %d after hot-swap", srv.ModelVersion())
	}
	if _, err := srv.Predict([]repro.NodeID{1, 2}); err != nil {
		t.Fatal(err)
	}
}
