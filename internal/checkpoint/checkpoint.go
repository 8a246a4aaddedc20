// Package checkpoint defines APT's versioned training snapshot: one
// self-describing binary artifact holding everything a training run
// needs to resume bit-identically — model parameters, optimizer
// moments, the sampler RNG stream positions, epoch counters, cache
// hotness, and the active plan (strategy, pipeline depth, cache-tier
// split).
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
// Files are written atomically (temp file + rename), so a crash during
// Checkpoint can never corrupt the previous snapshot.
package checkpoint

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"repro/internal/nn"
	"repro/internal/strategy"
)

// DefaultName is the rolling snapshot filename inside a checkpoint
// directory: each epoch-boundary snapshot atomically replaces the
// previous one.
const DefaultName = "snapshot.aptc"

// Snapshot is the full training state at an epoch boundary. The
// zero-valued optional fields (Opt, SamplerRNG, Freq) encode as absent
// sections; Resume degrades gracefully without them (cold optimizer,
// fresh RNG streams, re-run dry-run).
//
//apt:snapshot
type Snapshot struct {
	// Strategy is the canonical name of the active strategy
	// (strategy.Kind round-trips through it).
	Strategy string
	// Pipelined records whether the run overlapped sampling with
	// compute. PipelineDepth is a format field only: the prefetch bound
	// is an engine constant, so writers record 0 and readers ignore it.
	Pipelined     bool
	PipelineDepth int
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
	// EpochsDone counts fully completed epochs; StepInEpoch is reserved
	// for future mid-epoch snapshots and is always 0 at a boundary.
	EpochsDone  int
	StepInEpoch int
	// Model is one replica's parameters in the nn.SaveParams format
	// (itself versioned; replicas are identical by the allreduce
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
	// configured from; restoring it lets a same-topology resume skip
	// the dry-run entirely.
	Freq []int64
	// Adaptive carries the online re-planner's learned state and the
	// per-strategy dry-run statistics, so a resumed TrainAdaptive keeps
	// re-planning with the calibration it had already learned. Nil when
	// the run had no planner state to save.
	Adaptive *AdaptiveState
}

// Kind parses the snapshot's strategy name.
func (s *Snapshot) Kind() (strategy.Kind, error) {
	return strategy.Parse(s.Strategy)
}

// HasRNG reports whether the snapshot carries RNG cursors (the
// precondition for a bit-identical resume).
func (s *Snapshot) HasRNG() bool { return len(s.SamplerRNG) > 0 }

// Write encodes the snapshot to w.
func (s *Snapshot) Write(w io.Writer) error {
	b, err := s.Encode()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Read decodes one snapshot from r (which must contain exactly one:
// trailing bytes are rejected, mirroring the wire codec).
func Read(r io.Reader) (*Snapshot, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	return Decode(b)
}

// WriteFile writes the snapshot atomically: encode, write to a temp
// file next to path, rename. A crash mid-write leaves the previous
// snapshot untouched.
func (s *Snapshot) WriteFile(path string) error {
	b, err := s.Encode()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// ReadFile reads a snapshot written by WriteFile.
func ReadFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
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
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := Decode(b)
	if err == nil {
		err = m.LoadParams(bytes.NewReader(snap.Model))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap.Freq, nil
}
