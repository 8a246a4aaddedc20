package core

import (
	"bytes"
	"context"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/hardware"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/strategy"
)

// realResumeTask builds a small real-mode task (floats actually move,
// so bit-identity is observable in the trained parameters).
func realResumeTask(t testing.TB, devices int, pipeline bool) Task {
	t.Helper()
	spec, err := dataset.ByAbbr("FS", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	spec.FeatDim = 16
	spec.Classes = 4
	spec.HomophilyDegree = 6
	d := dataset.Build(spec, true)
	p := hardware.WithDevices(hardware.SingleMachine8GPU(), 1, devices)
	return Task{
		Graph:  d.Graph,
		Feats:  d.Feats,
		Labels: d.Labels,
		Seeds:  d.TrainSeeds,
		NewModel: func() *nn.Model {
			return nn.NewGraphSAGE(16, 16, 4, 2)
		},
		NewOptimizer: func() nn.Optimizer { return nn.NewAdam(0.01) },
		Sampling:     sample.Config{Fanouts: []int{8, 8}},
		BatchSize:    64,
		Platform:     p,
		CacheBytes:   d.CacheBytesFraction(0.08),
		Seed:         11,
		Pipeline:     pipeline,
	}
}

// paramChecksum is an FNV-64a digest over the exact parameter bits.
func paramChecksum(m *nn.Model) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range m.Params() {
		for _, v := range p.W.Data {
			bits := math.Float32bits(v)
			b[0] = byte(bits)
			b[1] = byte(bits >> 8)
			b[2] = byte(bits >> 16)
			b[3] = byte(bits >> 24)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestResumeBitIdentical pins the checkpoint contract for every core
// strategy, sync and pipelined: training E epochs straight and
// training k epochs, snapshotting, resuming in a fresh APT, and
// finishing to E must produce bit-identical parameters.
func TestResumeBitIdentical(t *testing.T) {
	const interruptAt, total = 2, 4
	for _, k := range strategy.Core {
		for _, pipeline := range []bool{false, true} {
			name := k.String()
			if pipeline {
				name += "/pipelined"
			}
			t.Run(name, func(t *testing.T) {
				// Uninterrupted baseline.
				base, err := New(realResumeTask(t, 2, pipeline))
				if err != nil {
					t.Fatal(err)
				}
				baseRes, err := base.TrainWith(k, total)
				if err != nil {
					t.Fatal(err)
				}
				want := paramChecksum(baseRes.Model)

				// Interrupted run: k epochs, rolling snapshot every epoch.
				dir := t.TempDir()
				first, err := New(realResumeTask(t, 2, pipeline))
				if err != nil {
					t.Fatal(err)
				}
				first.CheckpointDir = dir
				if _, err := first.TrainWith(k, interruptAt); err != nil {
					t.Fatal(err)
				}

				// Fresh process's view: resume from the snapshot file.
				snapPath := filepath.Join(dir, checkpoint.DefaultName)
				resumed, err := ResumeFile(realResumeTask(t, 2, pipeline), snapPath)
				if err != nil {
					t.Fatal(err)
				}
				if resumed.Choice != k {
					t.Fatalf("resume adopted %v, snapshot was %v", resumed.Choice, k)
				}
				res, err := resumed.TrainWith(k, total)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Epochs) != total-interruptAt {
					t.Fatalf("resumed run trained %d epochs, want %d", len(res.Epochs), total-interruptAt)
				}
				if got := paramChecksum(res.Model); got != want {
					t.Fatalf("resumed params %016x != uninterrupted %016x", got, want)
				}
			})
		}
	}
}

// TestResumeAfterMidEpochKill cancels training at an arbitrary point
// mid-run (after at least one snapshot exists) and checks the
// boundary-snapshot property: wherever the kill lands, resuming from
// the last epoch-boundary snapshot finishes bit-identically to the
// uninterrupted run.
func TestResumeAfterMidEpochKill(t *testing.T) {
	const total = 4
	base, err := New(realResumeTask(t, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := base.Train(total)
	if err != nil {
		t.Fatal(err)
	}
	want := paramChecksum(baseRes.Model)
	choice := baseRes.Choice

	dir := t.TempDir()
	snapPath := filepath.Join(dir, checkpoint.DefaultName)
	victim, err := New(realResumeTask(t, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	victim.CheckpointDir = dir
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The "kill": cancellation fires as soon as the first snapshot
		// lands on disk — an arbitrary point within a later epoch.
		for {
			if _, err := os.Stat(snapPath); err == nil {
				cancel()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	_, _ = victim.TrainContext(ctx, total) // error is the cancellation
	<-done
	cancel()

	resumed, err := ResumeFile(realResumeTask(t, 2, false), snapPath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Train(total)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Choice != choice {
		t.Fatalf("resumed choice %v, baseline planned %v", resumed.Choice, choice)
	}
	if got := paramChecksum(res.Model); got != want {
		t.Fatalf("post-kill resume params %016x != uninterrupted %016x", got, want)
	}
}

// TestResumeElastic restores a 2-device snapshot onto 4 devices: the
// plan and RNG cursors cannot survive the topology change, but the
// parameters, optimizer moments, and epoch counter must.
func TestResumeElastic(t *testing.T) {
	dir := t.TempDir()
	first, err := New(realResumeTask(t, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	first.CheckpointDir = dir
	if _, err := first.Train(2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := first.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if snap.EpochsDone != 2 {
		t.Fatalf("snapshot records %d epochs, want 2", snap.EpochsDone)
	}

	resumed, err := Resume(realResumeTask(t, 4, false), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Elastic resume re-plans on the new topology.
	if resumed.planned {
		t.Fatal("elastic resume adopted the old topology's plan")
	}
	// The restored engine must start from the snapshot's weights.
	wantModel := nn.NewGraphSAGE(16, 16, 4, 2)
	if err := wantModel.LoadParams(bytes.NewReader(snap.Model)); err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Train(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 {
		t.Fatalf("elastic resume trained %d epochs, want 2 (4 total - 2 done)", len(res.Epochs))
	}
	if paramChecksum(res.Model) == paramChecksum(wantModel) {
		t.Fatal("model did not train after elastic resume")
	}
}

// TestResumeWarmStartsFromSnapshotParams verifies consumeResume actually
// installs the snapshot's parameters (elastic path, before training).
func TestResumeWarmStartsFromSnapshotParams(t *testing.T) {
	first, err := New(realResumeTask(t, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Train(2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := first.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	wantModel := nn.NewGraphSAGE(16, 16, 4, 2)
	if err := wantModel.LoadParams(bytes.NewReader(snap.Model)); err != nil {
		t.Fatal(err)
	}

	resumed, err := Resume(realResumeTask(t, 4, false), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	choice, err := resumed.Plan()
	if err != nil {
		t.Fatal(err)
	}
	e, err := resumed.BuildEngine(choice)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.consumeResume(e); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 4; d++ {
		if paramChecksum(e.Model(d)) != paramChecksum(wantModel) {
			t.Fatalf("device %d replica does not match snapshot params", d)
		}
	}
}

// TestResumeTotalEpochSemantics: Train's epoch count is the total for
// the experiment, so resuming at the target is a no-op.
func TestResumeTotalEpochSemantics(t *testing.T) {
	dir := t.TempDir()
	first, err := New(realResumeTask(t, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	first.CheckpointDir = dir
	if _, err := first.Train(3); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeFile(realResumeTask(t, 2, false), filepath.Join(dir, checkpoint.DefaultName))
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Train(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 0 {
		t.Fatalf("resume at the target trained %d epochs, want 0", len(res.Epochs))
	}
}

// TestResumeRejectsSeedMismatch: a snapshot cannot silently continue a
// different experiment.
func TestResumeRejectsSeedMismatch(t *testing.T) {
	first, err := New(realResumeTask(t, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Train(1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := first.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	other := realResumeTask(t, 2, false)
	other.Seed = 999
	if _, err := Resume(other, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("accepted snapshot from a different seed")
	}
}

// TestCheckpointEveryCadence: CheckpointEvery throttles the rolling
// snapshot to every n-th boundary.
func TestCheckpointEveryCadence(t *testing.T) {
	dir := t.TempDir()
	a, err := New(realResumeTask(t, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	a.CheckpointDir = dir
	a.CheckpointEvery = 2
	if _, err := a.Train(3); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.ReadFile(filepath.Join(dir, checkpoint.DefaultName))
	if err != nil {
		t.Fatal(err)
	}
	if snap.EpochsDone != 2 {
		t.Fatalf("rolling snapshot is from epoch %d, want 2 (every=2, 3 epochs run)", snap.EpochsDone)
	}
}

// TestCheckpointWithoutEngineFails: Checkpoint before any engine
// exists is a usage error, not a zero-byte snapshot.
func TestCheckpointWithoutEngineFails(t *testing.T) {
	a, err := New(testTask(t, "PS", 2, 16))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Checkpoint(&buf); err == nil {
		t.Fatal("checkpointed an APT with no engine")
	}
}

// TestAdaptiveResumeCarriesDryRunStats: a snapshot from any planned
// run carries the per-strategy dry-run stats, so TrainAdaptive on a
// resumed APT re-plans online instead of holding the recorded plan.
func TestAdaptiveResumeCarriesDryRunStats(t *testing.T) {
	dir := t.TempDir()
	first, err := New(realResumeTask(t, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	first.CheckpointDir = dir
	if _, err := first.Train(2); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeFile(realResumeTask(t, 2, false), filepath.Join(dir, checkpoint.DefaultName))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.dryRun == nil || resumed.dryRun.PerStrategy == nil {
		t.Fatal("resume did not adopt the snapshot's per-strategy dry-run stats")
	}
	if resumed.resumeReplan == nil {
		t.Fatal("resume did not adopt the snapshot's re-planner state")
	}
	res, err := resumed.TrainAdaptive(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 {
		t.Fatalf("adaptive resume trained %d epochs, want 2", len(res.Epochs))
	}
}

// TestAdaptiveResumeBitIdentical pins the adaptive resume contract:
// TrainAdaptive run straight to E, and the same run resumed at an
// intermediate epoch-stamped snapshot, must produce bit-identical
// parameters — which requires the resumed re-planner to make the same
// decisions, which requires the snapshot to carry the calibration,
// overlap, cooldown, and dry-run stats the interrupted planner held.
func TestAdaptiveResumeBitIdentical(t *testing.T) {
	const interruptAt, total = 2, 5
	dir := t.TempDir()
	first, err := New(realResumeTask(t, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	first.CheckpointDir = dir
	// Retain every boundary so the interruptAt snapshot survives the
	// full run (the baseline and the donor are the same run).
	first.CheckpointRetain = total
	firstRes, err := first.TrainAdaptive(total)
	if err != nil {
		t.Fatal(err)
	}
	want := paramChecksum(firstRes.Model)

	snapPath := filepath.Join(dir, checkpoint.SnapshotName(interruptAt))
	resumed, err := ResumeFile(realResumeTask(t, 2, false), snapPath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.TrainAdaptive(total)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != total-interruptAt {
		t.Fatalf("resumed adaptive run trained %d epochs, want %d", len(res.Epochs), total-interruptAt)
	}
	if res.Choice != firstRes.Choice {
		t.Fatalf("resumed run ended on %v, uninterrupted on %v", res.Choice, firstRes.Choice)
	}
	if got := paramChecksum(res.Model); got != want {
		t.Fatalf("resumed adaptive params %016x != uninterrupted %016x", got, want)
	}
	// The replan decisions after the interrupt point must match the
	// uninterrupted run's tail exactly.
	var tail []ReplanEvent
	for _, ev := range firstRes.Replans {
		if ev.Epoch >= interruptAt {
			tail = append(tail, ev)
		}
	}
	if len(res.Replans) != len(tail) {
		t.Fatalf("resumed run made %d switches after epoch %d, uninterrupted made %d",
			len(res.Replans), interruptAt, len(tail))
	}
	for i := range tail {
		if res.Replans[i].To != tail[i].To || res.Replans[i].Epoch != tail[i].Epoch {
			t.Fatalf("switch %d: resumed %+v != uninterrupted %+v", i, res.Replans[i], tail[i])
		}
	}
}

// TestCheckpointRetainRotation: with CheckpointRetain set, snapshots
// are epoch-stamped and pruned to the newest k — including across a
// resume, where the rotation continues from the adopted epoch base.
func TestCheckpointRetainRotation(t *testing.T) {
	dir := t.TempDir()
	stamped := func() []string {
		names, err := filepath.Glob(filepath.Join(dir, "snapshot-ep*.aptc"))
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range names {
			names[i] = filepath.Base(n)
		}
		return names
	}
	a, err := New(realResumeTask(t, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	a.CheckpointDir = dir
	a.CheckpointRetain = 2
	if _, err := a.Train(3); err != nil {
		t.Fatal(err)
	}
	want := []string{checkpoint.SnapshotName(2), checkpoint.SnapshotName(3)}
	if got := stamped(); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("after 3 epochs retain 2: %v, want %v", got, want)
	}

	latest, err := checkpoint.LatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(latest) != checkpoint.SnapshotName(3) {
		t.Fatalf("LatestSnapshot = %s, want %s", latest, checkpoint.SnapshotName(3))
	}
	resumed, err := ResumeFile(realResumeTask(t, 2, false), latest)
	if err != nil {
		t.Fatal(err)
	}
	resumed.CheckpointDir = dir
	resumed.CheckpointRetain = 2
	if _, err := resumed.Train(5); err != nil {
		t.Fatal(err)
	}
	want = []string{checkpoint.SnapshotName(4), checkpoint.SnapshotName(5)}
	if got := stamped(); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("after resume to 5 retain 2: %v, want %v", got, want)
	}
}
