// Package checkpoint defines APT's versioned training snapshot: one
// self-describing binary artifact holding what a training run reads to
// resume bit-identically — model parameters, optimizer moments, the
// sampler RNG stream positions, the epoch counter, cache hotness, the
// active plan (strategy, cache-tier split) and the re-planner's learned
// calibration. What the run can derive again from its task, such as
// the planner's per-strategy dry-run statistics, is not stored.
//
// The design mirrors the transport wire codec (internal/transport):
// little-endian primitives, length-prefixed CRC-framed sections, a
// canonical encoding (decode∘encode is the identity, pinned by golden
// and fuzz tests), and typed errors for every rejection class. RNG
// cursors are first-class state here, not an afterthought: the engine
// is deterministic GIVEN its RNG streams, so capturing each sampler's
// xoshiro position plus the epoch shuffler is exactly what makes a
// resumed run draw the same mini-batches the uninterrupted run would
// have drawn.
//
// Files are written atomically and durably (fsynced temp file, rename,
// fsynced directory), so a crash while a snapshot is written can never
// corrupt the previous one.
package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/nn"
	"repro/internal/strategy"
)

// DefaultName is the rolling snapshot filename inside a checkpoint
// directory: each epoch-boundary snapshot atomically replaces the
// previous one.
const DefaultName = "snapshot.aptc"

// Snapshot is the training state at an epoch boundary. The
// zero-valued optional fields (Opt, SamplerRNG, Freq, Adaptive) encode
// as absent sections; ResumeFile degrades gracefully without them (cold
// optimizer, fresh RNG streams, re-run dry-run, cold re-planner).
type Snapshot struct {
	// Strategy is the canonical name of the active strategy
	// (strategy.Kind round-trips through it).
	Strategy string
	// Int8Frac is the warm-tier share of the cache budget the run was
	// using (the re-planner may have moved it off the task's value).
	Int8Frac float64
	// Seed is the task seed the run was built from; resume validates it
	// so a snapshot cannot silently continue a different experiment.
	Seed uint64
	// Devices is the worker count the RNG cursors were captured under.
	// A resume onto a different device count (elastic resume) keeps the
	// params and optimizer but must drop the cursors and re-plan.
	Devices int
	// EpochsDone counts fully completed epochs. Snapshots are taken
	// only at epoch boundaries.
	EpochsDone int
	// Model is one replica's parameters, encoded by EncodeModel (the
	// body is itself versioned; replicas are identical by the allreduce
	// invariant, so one is enough).
	Model []byte
	// Opt is the optimizer state (nil when the optimizer is not a
	// nn.StatefulOptimizer; moments are identical across devices for
	// the same reason the replicas are).
	Opt *nn.OptState
	// SamplerRNG holds each device sampler's RNG stream position;
	// EpochRNG is the epoch shuffler's. Empty SamplerRNG means the rng
	// section is absent (the snapshot cannot resume bit-identically,
	// only warm-start).
	SamplerRNG [][4]uint64
	EpochRNG   [4]uint64
	// Freq is the dry-run access-frequency vector the caches were
	// configured from; restoring it lets a same-topology Train resume
	// skip the dry-run entirely, and aptserve admits its serving caches
	// from it.
	Freq []int64
	// Adaptive carries the online re-planner's learned state, so a
	// resumed TrainAdaptive keeps re-planning with the calibration it had
	// already learned. Nil unless a re-planner was live: a cold one is
	// what a resumed TrainAdaptive builds anyway.
	Adaptive *AdaptiveState
}

// Kind parses the snapshot's strategy name.
func (s *Snapshot) Kind() (strategy.Kind, error) {
	return strategy.Parse(s.Strategy)
}

// HasRNG reports whether the snapshot carries RNG cursors (the
// precondition for a bit-identical resume).
func (s *Snapshot) HasRNG() bool { return len(s.SamplerRNG) > 0 }

// WriteFile writes the snapshot atomically and durably: encode, write
// and fsync a temp file next to path, rename it over path, fsync the
// directory. A process or OS crash at any point leaves either the
// previous snapshot or the new one, and a failed write leaves no temp
// file behind.
func (s *Snapshot) WriteFile(path string) error {
	b, err := s.Encode()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := writeSynced(tmp, b); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// writeSynced writes b to a new file at path and flushes it to stable
// storage before closing it.
func writeSynced(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir flushes dir's entries, so a rename into it survives an OS
// crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile reads a snapshot written by WriteFile. Decode errors name
// the path and wrap the typed errors (errors.Is(err, ErrMalformed)).
func ReadFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// LoadModelInto loads model parameters from the training snapshot at
// path into m. It is the serving-side loader: aptserve does not care
// about optimizer moments or RNG cursors, only the weights. Errors name
// the path; a file that is not a snapshot fails with ErrMalformed.
func LoadModelInto(m *nn.Model, path string) error {
	_, err := LoadModelFreq(m, path)
	return err
}

// LoadModelFreq is LoadModelInto that also returns the dry-run access
// frequencies the snapshot carries — what the training caches were
// admitted from, and what a server needs to admit the same hot rows
// (nil when the run saved none).
func LoadModelFreq(m *nn.Model, path string) ([]int64, error) {
	snap, err := ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := DecodeModel(m, snap.Model); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap.Freq, nil
}
