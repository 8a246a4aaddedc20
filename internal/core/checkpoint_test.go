package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/engine"
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
	path := filepath.Join(t.TempDir(), checkpoint.DefaultName)
	if err := first.CheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.EpochsDone != 2 {
		t.Fatalf("snapshot records %d epochs, want 2", snap.EpochsDone)
	}

	resumed, err := ResumeFile(realResumeTask(t, 4, false), path)
	if err != nil {
		t.Fatal(err)
	}
	// Elastic resume re-plans on the new topology.
	if resumed.planned {
		t.Fatal("elastic resume adopted the old topology's plan")
	}
	// The restored engine must start from the snapshot's weights.
	wantModel := nn.NewGraphSAGE(16, 16, 4, 2)
	if err := checkpoint.DecodeModel(wantModel, snap.Model); err != nil {
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
	path := filepath.Join(t.TempDir(), checkpoint.DefaultName)
	if err := first.CheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantModel := nn.NewGraphSAGE(16, 16, 4, 2)
	if err := checkpoint.DecodeModel(wantModel, snap.Model); err != nil {
		t.Fatal(err)
	}

	resumed, err := ResumeFile(realResumeTask(t, 4, false), path)
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
	path := filepath.Join(t.TempDir(), checkpoint.DefaultName)
	if err := first.CheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	other := realResumeTask(t, 2, false)
	other.Seed = 999
	if _, err := ResumeFile(other, path); err == nil {
		t.Fatal("accepted snapshot from a different seed")
	}
}

// TestResumeFileNamesCorruptSnapshot: a truncated snapshot, one that
// is not a snapshot at all and one whose meta names the removed Hybrid
// strategy are rejected with errors that name the file and still match
// the codec's typed errors.
func TestResumeFileNamesCorruptSnapshot(t *testing.T) {
	first, err := New(realResumeTask(t, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Train(1); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, checkpoint.DefaultName)
	if err := first.CheckpointFile(good); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
		want error
	}{
		{"truncated.aptc", b[:len(b)/2], checkpoint.ErrTruncated},
		{"badmagic.aptc", append([]byte("NOTASNAP"), b[8:]...), checkpoint.ErrMalformed},
		{"hybrid.aptc", withStrategyName(b, "Hybrid"), checkpoint.ErrMalformed},
	} {
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ResumeFile(realResumeTask(t, 2, false), path)
		if !errors.Is(err, c.want) || !strings.Contains(err.Error(), path) {
			t.Errorf("ResumeFile(%s) = %v, want %v naming the path", c.name, err, c.want)
		}
	}
}

// withStrategyName returns the snapshot bytes b with the strategy name
// that leads its meta section (the first section) replaced by name,
// the section's length and CRC recomputed.
func withStrategyName(b []byte, name string) []byte {
	const head = 12 // magic, version, section count
	metaLen := int(binary.LittleEndian.Uint32(b[head+1:]))
	meta := b[head+5 : head+5+metaLen]
	oldLen := int(binary.LittleEndian.Uint32(meta))
	body := binary.LittleEndian.AppendUint32(nil, uint32(len(name)))
	body = append(append(body, name...), meta[4+oldLen:]...)
	out := binary.LittleEndian.AppendUint32(append([]byte(nil), b[:head+1]...), uint32(len(body)))
	out = binary.LittleEndian.AppendUint32(append(out, body...), crc32.ChecksumIEEE(body))
	return append(out, b[head+5+metaLen+4:]...)
}

// TestCheckpointDirCreatedBeforeFirstEpoch: Train creates a missing
// nested CheckpointDir and leaves the rolling snapshot in it, and a
// CheckpointDir that is a regular file fails before the first epoch.
func TestCheckpointDirCreatedBeforeFirstEpoch(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "runs", "a", "ckpt")
	a, err := New(realResumeTask(t, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	a.CheckpointDir = dir
	if _, err := a.Train(1); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.ReadFile(filepath.Join(dir, checkpoint.DefaultName)); err != nil {
		t.Fatalf("no rolling snapshot in the created directory: %v", err)
	}

	file := filepath.Join(root, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := New(realResumeTask(t, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	b.CheckpointDir = file
	res, err := b.Train(1)
	trained := 0
	if res != nil {
		trained = len(res.Epochs)
	}
	if err == nil || trained != 0 {
		t.Fatalf("checkpoint directory that is a file: Train = %v after %d epoch(s), want an error before the first", err, trained)
	}
}

// TestCheckpointWithoutEngineFails: CheckpointFile before any engine
// exists is a usage error, not a zero-byte snapshot, and creates no
// file.
func TestCheckpointWithoutEngineFails(t *testing.T) {
	a, err := New(testTask(t, "PS", 2, 16))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := a.CheckpointFile(filepath.Join(dir, checkpoint.DefaultName)); err == nil {
		t.Fatal("checkpointed an APT with no engine")
	}
	if names, err := os.ReadDir(dir); err != nil || len(names) != 0 {
		t.Fatalf("failed checkpoint left %d file(s) (err %v), want none", len(names), err)
	}
}

// TestAdaptiveResumeRederivesDryRun: a snapshot does not carry the dry
// run's per-strategy epochs, so a resumed TrainAdaptive derives them
// again. They must equal the uninterrupted run's bit for bit in every
// field but WallSec (the host's clock), also when the snapshot's live
// warm-tier split is not the task's: the dry run always runs under
// Task.Int8CacheFrac.
func TestAdaptiveResumeRederivesDryRun(t *testing.T) {
	task := func() Task {
		tk := realResumeTask(t, 2, false)
		tk.Int8CacheFrac = 0.25
		return tk
	}
	dir := t.TempDir()
	first, err := New(task())
	if err != nil {
		t.Fatal(err)
	}
	first.CheckpointDir = dir
	if _, err := first.TrainAdaptive(2); err != nil {
		t.Fatal(err)
	}
	want := first.DryRunStats()
	snap, err := checkpoint.ReadFile(filepath.Join(dir, checkpoint.DefaultName))
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{snap.Int8Frac, 0} {
		snap.Int8Frac = frac
		path := filepath.Join(t.TempDir(), checkpoint.DefaultName)
		if err := snap.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		resumed, err := ResumeFile(task(), path)
		if err != nil {
			t.Fatal(err)
		}
		if st := resumed.DryRunStats(); st != nil && st.PerStrategy != nil {
			t.Fatal("resume adopted per-strategy dry-run stats, which snapshots do not carry")
		}
		res, err := resumed.TrainAdaptive(4)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Epochs) != 2 {
			t.Fatalf("split %v: adaptive resume trained %d epochs, want 2", frac, len(res.Epochs))
		}
		got := resumed.DryRunStats()
		if !slices.Equal(got.Freq, want.Freq) {
			t.Errorf("split %v: re-derived access frequencies differ", frac)
		}
		if len(got.PerStrategy) != len(want.PerStrategy) {
			t.Fatalf("split %v: re-derived %d strategies, want %d", frac, len(got.PerStrategy), len(want.PerStrategy))
		}
		for k, w := range want.PerStrategy {
			g := got.PerStrategy[k]
			g.WallSec, w.WallSec = 0, 0
			if gs, ws := fmt.Sprintf("%#v", g), fmt.Sprintf("%#v", w); gs != ws {
				t.Errorf("split %v: %v dry-run epoch re-derived as\n%s\nuninterrupted run had\n%s", frac, k, gs, ws)
			}
		}
	}
}

// TestAdaptiveResumeBitIdentical pins the adaptive resume contract:
// TrainAdaptive run straight to E, and the same run resumed from the
// rolling snapshot as it stood at an intermediate epoch, must produce
// bit-identical parameters — which requires the resumed re-planner to
// make the same decisions, which requires the snapshot to carry the
// calibration and cooldown the interrupted planner held.
func TestAdaptiveResumeBitIdentical(t *testing.T) {
	const interruptAt, total = 2, 5
	dir := t.TempDir()
	first, err := New(realResumeTask(t, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	first.CheckpointDir = dir
	// The baseline and the donor are the same run: OnEpoch runs after
	// the boundary's checkpoint, so the copy taken at interruptAt holds
	// the planner state that has already observed epoch interruptAt —
	// which a separate TrainAdaptive(interruptAt) run would not have.
	// live is the re-planner's own state at that boundary, which the
	// copy must carry.
	snapPath := filepath.Join(t.TempDir(), checkpoint.DefaultName)
	var copyErr error
	var live checkpoint.AdaptiveState
	first.OnEpoch = func(ep int, _ engine.EpochStats, _ *nn.Model) {
		if ep != interruptAt {
			return
		}
		live = first.replanner.State()
		b, err := os.ReadFile(filepath.Join(dir, checkpoint.DefaultName))
		if err == nil {
			err = os.WriteFile(snapPath, b, 0o644)
		}
		copyErr = err
	}
	firstRes, err := first.TrainAdaptive(total)
	if err != nil {
		t.Fatal(err)
	}
	if copyErr != nil {
		t.Fatal(copyErr)
	}
	want := paramChecksum(firstRes.Model)

	// The snapshot carries exactly the live re-planner state, and that
	// state is warm: two cold states would match without pinning
	// anything.
	snap, err := checkpoint.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	ad := snap.Adaptive
	if ad == nil {
		t.Fatal("adaptive snapshot has no re-planner state")
	}
	bits := math.Float64bits
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"CalBuild", ad.CalBuild, live.CalBuild},
		{"CalLoadHost", ad.CalLoadHost, live.CalLoadHost},
		{"CalShuffle", ad.CalShuffle, live.CalShuffle},
	} {
		if bits(f.got) != bits(f.want) {
			t.Errorf("snapshot %s = %v, live re-planner at epoch %d has %v", f.name, f.got, interruptAt, f.want)
		}
	}
	if ad.Cooldown != live.Cooldown {
		t.Errorf("snapshot Cooldown = %d, live re-planner at epoch %d has %d", ad.Cooldown, interruptAt, live.Cooldown)
	}
	if live.CalBuild == 0 && live.CalLoadHost == 0 && live.CalShuffle == 0 {
		t.Fatalf("re-planner still cold at epoch %d: every calibration factor is 0", interruptAt)
	}

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
