package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/nn"
)

// fullSnapshot builds a snapshot exercising every section.
func fullSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	m := nn.NewGraphSAGE(4, 8, 3, 2)
	m.Init(graph.NewRNG(1))
	model := EncodeModel(m)
	opt := nn.NewAdam(0.01)
	params := m.Params()
	for _, p := range params {
		for i := range p.G.Data {
			p.G.Data[i] = float32(i%7) * 0.125
		}
	}
	opt.Step(params)
	st := opt.State(params)
	return &Snapshot{
		Strategy:   "NFP",
		Int8Frac:   0.25,
		Seed:       42,
		Devices:    2,
		EpochsDone: 3,
		Model:      model,
		Opt:        &st,
		SamplerRNG: [][4]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}},
		EpochRNG:   [4]uint64{9, 10, 11, 12},
		Freq:       []int64{4, 0, 9, 1},
		Adaptive:   adaptiveState(),
	}
}

// adaptiveState builds a re-planner state with every field exercised.
func adaptiveState() *AdaptiveState {
	return &AdaptiveState{
		Cooldown:    1,
		CalBuild:    1.5,
		CalLoadHost: 0.75,
		CalShuffle:  1,
		CalTrain:    0.875,
		GradOverlap: 0.75,
	}
}

// TestRoundTripAdaptive pins the adaptive section: the re-planner's
// cooldown, calibration factors and overlap survive encode/decode, and
// the encoding is canonical.
func TestRoundTripAdaptive(t *testing.T) {
	s := fullSnapshot(t)
	b := mustEncode(t, s)
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(s.Adaptive, got.Adaptive) {
		t.Fatalf("adaptive state changed:\n in %+v\nout %+v", s.Adaptive, got.Adaptive)
	}
	if !bytes.Equal(b, mustEncode(t, got)) {
		t.Fatal("re-encode differs from original bytes")
	}
}

// TestDecodeRejectsBadAdaptive covers the adaptive section's rejection
// classes: a body shorter or longer than its fixed frame, and a
// version-1 adaptive body (base split first, per-strategy stats after)
// inside a version-2 container.
func TestDecodeRejectsBadAdaptive(t *testing.T) {
	s := minimalSnapshot(t)
	s.Adaptive = adaptiveState()
	secs := sections(t, mustEncode(t, s))
	last := len(secs) - 1
	if secs[last][0][0] != secAdaptive {
		t.Fatalf("last section is %d, want the adaptive section", secs[last][0][0])
	}
	body := secs[last][1]
	v1 := binary.LittleEndian.AppendUint64(nil, 0x3fd0000000000000) // base split 0.25
	v1 = append(append(v1, body...), 0, 0, 0, 0)                    // no strategies
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"short", body[:len(body)-1]},
		{"trailing", append(append([]byte(nil), body...), 0)},
		{"v1 layout", v1},
	} {
		secs[last][1] = c.body
		if _, err := Decode(reframe(secs...)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s adaptive body: err = %v, want ErrMalformed", c.name, err)
		}
	}
}

// minimalSnapshot has only the two mandatory sections.
func minimalSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	s := fullSnapshot(t)
	return &Snapshot{
		Strategy: "GDP",
		Seed:     7,
		Devices:  1,
		Model:    s.Model,
	}
}

func mustEncode(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	b, err := s.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return b
}

// TestSnapshotGolden pins the container format: these bytes ARE the
// on-disk format, and any codec change that alters them is a breaking
// revision that must bump snapVersion.
func TestSnapshotGolden(t *testing.T) {
	s := &Snapshot{
		Strategy: "GDP",
		Int8Frac: 0.5,
		Seed:     0x0102030405060708,
		Devices:  1,
		// Shortest well-formed model body the golden bytes can carry: a
		// raw stand-in, not a real nn checkpoint (the container does not
		// parse the model section).
		Model:      []byte{0xde, 0xad, 0xbe, 0xef},
		SamplerRNG: [][4]uint64{{1, 0, 0, 0}},
		EpochRNG:   [4]uint64{0, 0, 0, 2},
	}
	got := mustEncode(t, s)
	const want = "" +
		"53545041" + // magic "APTS" (little-endian)
		"02000000" + // version 2
		"03000000" + // 3 sections
		// meta: id 1, len 31
		"01" + "1f000000" +
		"03000000474450" + // strategy "GDP"
		"000000000000e03f" + // float64(0.5)
		"0807060504030201" + // seed
		"01000000" + // 1 device
		"00000000" + // 0 epochs done
		"d772ccf9" + // crc
		// model: id 2, len 4
		"02" + "04000000" + "deadbeef" + "5aa39c7c" +
		// rng: id 4, len 68
		"04" + "44000000" +
		"01000000" + // 1 sampler
		"0100000000000000" + "0000000000000000" + "0000000000000000" + "0000000000000000" +
		"0000000000000000" + "0000000000000000" + "0000000000000000" + "0200000000000000" +
		"67dcfab8" // crc
	if hex.EncodeToString(got) != want {
		t.Fatalf("golden mismatch:\n got %s\nwant %s", hex.EncodeToString(got), want)
	}
}

func TestRoundTripFull(t *testing.T) {
	s := fullSnapshot(t)
	b := mustEncode(t, s)
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip changed snapshot:\n in %+v\nout %+v", s, got)
	}
	// Canonical encoding: re-encode reproduces the bytes.
	b2 := mustEncode(t, got)
	if !bytes.Equal(b, b2) {
		t.Fatal("re-encode differs from original bytes")
	}
}

func TestRoundTripMinimal(t *testing.T) {
	s := minimalSnapshot(t)
	got, err := Decode(mustEncode(t, s))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip changed snapshot:\n in %+v\nout %+v", s, got)
	}
	if got.HasRNG() {
		t.Error("minimal snapshot claims RNG cursors")
	}
	if got.Opt != nil || got.Freq != nil {
		t.Error("minimal snapshot grew optional sections")
	}
}

func TestRoundTripSGDState(t *testing.T) {
	s := minimalSnapshot(t)
	// SGD: nil V, and one never-materialized velocity slot.
	s.Opt = &nn.OptState{Kind: "sgd", M: [][]float32{{1, 2, 3}, nil}}
	got, err := Decode(mustEncode(t, s))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Opt.V != nil {
		t.Error("sgd state grew a V on round trip")
	}
	if got.Opt.M[1] != nil {
		t.Error("absent moment became present on round trip")
	}
	if !reflect.DeepEqual(s.Opt, got.Opt) {
		t.Fatalf("opt state changed: in %+v out %+v", s.Opt, got.Opt)
	}
}

func TestRoundTripNeverSteppedAdam(t *testing.T) {
	// A never-stepped Adam emits all-absent moment slots; the codec
	// canonicalizes the all-absent V to nil — the SGD form — and
	// Adam.Restore must accept it back.
	m := nn.NewGraphSAGE(4, 8, 3, 2)
	m.Init(graph.NewRNG(1))
	params := m.Params()
	opt := nn.NewAdam(0.01)
	s := minimalSnapshot(t)
	st := opt.State(params)
	s.Opt = &st
	got, err := Decode(mustEncode(t, s))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Opt.V != nil {
		t.Error("all-absent V was not canonicalized to nil")
	}
	if err := nn.NewAdam(0.01).Restore(params, *got.Opt); err != nil {
		t.Fatalf("Restore of never-stepped adam state: %v", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	b := mustEncode(t, fullSnapshot(t))
	for _, n := range []int{0, 4, 11, 12, 16, len(b) / 2, len(b) - 1} {
		if _, err := Decode(b[:n]); !errors.Is(err, ErrTruncated) {
			t.Errorf("prefix of %d bytes: got %v, want ErrTruncated", n, err)
		}
	}
}

func TestDecodeTrailing(t *testing.T) {
	b := mustEncode(t, fullSnapshot(t))
	if _, err := Decode(append(append([]byte(nil), b...), 0)); !errors.Is(err, ErrTrailing) {
		t.Error("accepted snapshot with trailing byte")
	}
}

func TestDecodeBadCRC(t *testing.T) {
	b := mustEncode(t, fullSnapshot(t))
	// Flip one bit inside the meta section body (starts after the
	// 12-byte header and 5-byte section frame header).
	bad := append([]byte(nil), b...)
	bad[17+3] ^= 0x40
	if _, err := Decode(bad); !errors.Is(err, ErrBadCRC) {
		t.Errorf("got %v, want ErrBadCRC", err)
	}
}

func TestDecodeBadVersion(t *testing.T) {
	b := mustEncode(t, fullSnapshot(t))
	bad := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(bad[4:], 99)
	if _, err := Decode(bad); !errors.Is(err, ErrVersion) {
		t.Errorf("got %v, want ErrVersion", err)
	}
}

// TestReadFileRefusesVersion1: a file in the version-1 layout (the
// meta section still holds the pipelined flag, the pipeline depth and
// the step in the epoch) is refused as a version, not parsed as a
// malformed version 2, and the error names the file.
func TestReadFileRefusesVersion1(t *testing.T) {
	const v1 = "" +
		"53545041" + "01000000" + "03000000" +
		"01" + "28000000" +
		"03000000474450" + "00" + "00000000" + "000000000000e03f" +
		"0807060504030201" + "01000000" + "00000000" + "00000000" +
		"da2248a1" +
		"02" + "04000000" + "deadbeef" + "5aa39c7c" +
		"04" + "44000000" + "01000000" +
		"0100000000000000" + "0000000000000000" + "0000000000000000" + "0000000000000000" +
		"0000000000000000" + "0000000000000000" + "0000000000000000" + "0200000000000000" +
		"67dcfab8"
	b, err := hex.DecodeString(v1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), DefaultName)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReadFile(path)
	if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), path) {
		t.Fatalf("ReadFile(v1 snapshot) = %v, want ErrVersion naming %s", err, path)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	b := mustEncode(t, fullSnapshot(t))
	bad := append([]byte(nil), b...)
	bad[0] = 'X'
	if _, err := Decode(bad); !errors.Is(err, ErrMalformed) {
		t.Errorf("got %v, want ErrMalformed", err)
	}
}

// reframe rebuilds the container around raw (id, body) sections,
// computing correct lengths and CRCs, so tests can construct files
// whose framing is valid but whose structure is not.
func reframe(sections ...[2][]byte) []byte {
	b := make([]byte, 12)
	binary.LittleEndian.PutUint32(b, snapMagic)
	binary.LittleEndian.PutUint32(b[4:], snapVersion)
	binary.LittleEndian.PutUint32(b[8:], uint32(len(sections)))
	for _, sec := range sections {
		b = append(b, sec[0][0])
		b = binary.LittleEndian.AppendUint32(b, uint32(len(sec[1])))
		b = append(b, sec[1]...)
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(sec[1]))
	}
	return b
}

// sections splits an encoded snapshot back into (id, body) pairs.
func sections(t *testing.T, b []byte) [][2][]byte {
	t.Helper()
	n := int(binary.LittleEndian.Uint32(b[8:]))
	rest := b[12:]
	var out [][2][]byte
	for i := 0; i < n; i++ {
		id := rest[0]
		l := int(binary.LittleEndian.Uint32(rest[1:]))
		out = append(out, [2][]byte{{id}, rest[5 : 5+l]})
		rest = rest[5+l+4:]
	}
	return out
}

func TestDecodeUnknownSection(t *testing.T) {
	secs := sections(t, mustEncode(t, fullSnapshot(t)))
	secs = append(secs, [2][]byte{{200}, {1, 2, 3}})
	if _, err := Decode(reframe(secs...)); !errors.Is(err, ErrUnknownSection) {
		t.Error("accepted unknown section id 200")
	}
}

func TestDecodeDuplicateSection(t *testing.T) {
	secs := sections(t, mustEncode(t, fullSnapshot(t)))
	dup := append(secs, secs[len(secs)-1])
	if _, err := Decode(reframe(dup...)); !errors.Is(err, ErrMalformed) {
		t.Error("accepted duplicated section")
	}
}

func TestDecodeOutOfOrderSections(t *testing.T) {
	secs := sections(t, mustEncode(t, fullSnapshot(t)))
	secs[0], secs[1] = secs[1], secs[0]
	if _, err := Decode(reframe(secs...)); !errors.Is(err, ErrMalformed) {
		t.Error("accepted out-of-order sections")
	}
}

func TestDecodeMissingMandatorySection(t *testing.T) {
	secs := sections(t, mustEncode(t, fullSnapshot(t)))
	for drop := 0; drop < 2; drop++ { // meta, model
		var kept [][2][]byte
		for i, sec := range secs {
			if i != drop {
				kept = append(kept, sec)
			}
		}
		if _, err := Decode(reframe(kept...)); !errors.Is(err, ErrMalformed) {
			t.Errorf("accepted snapshot without section %d", secs[drop][0][0])
		}
	}
}

func TestDecodeOversized(t *testing.T) {
	b := mustEncode(t, fullSnapshot(t))
	bad := append([]byte(nil), b...)
	// Meta section's length field sits right after the header + id byte.
	binary.LittleEndian.PutUint32(bad[13:], DefaultMaxSectionBytes+1)
	if _, err := Decode(bad); !errors.Is(err, ErrOversized) {
		t.Errorf("got %v, want ErrOversized", err)
	}
}

func TestDecodeRejectsZeroRNGState(t *testing.T) {
	s := fullSnapshot(t)
	s.SamplerRNG[1] = [4]uint64{}
	if _, err := Decode(mustEncode(t, s)); !errors.Is(err, ErrMalformed) {
		t.Error("accepted all-zero sampler rng state")
	}
	s = fullSnapshot(t)
	s.EpochRNG = [4]uint64{}
	// Encode treats zero EpochRNG as legal (HasRNG only checks
	// samplers), so the decoder must be the backstop.
	if _, err := Decode(mustEncode(t, s)); !errors.Is(err, ErrMalformed) {
		t.Error("accepted all-zero epoch rng state")
	}
}

func TestDecodeRejectsCursorDeviceMismatch(t *testing.T) {
	s := fullSnapshot(t)
	s.Devices = 3 // cursors were captured under 2
	if _, err := Decode(mustEncode(t, s)); !errors.Is(err, ErrMalformed) {
		t.Error("accepted rng cursor count != device count")
	}
}

func TestDecodeRejectsBadMeta(t *testing.T) {
	cases := []func(*Snapshot){
		func(s *Snapshot) { s.Strategy = "WARP" },
		func(s *Snapshot) { s.Int8Frac = 1.5 },
		func(s *Snapshot) { s.Int8Frac = -0.1 },
	}
	for i, mutate := range cases {
		s := minimalSnapshot(t)
		mutate(s)
		b, err := s.Encode()
		if err != nil {
			continue // Encode already rejects it; that's fine too.
		}
		if _, err := Decode(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: bad meta accepted", i)
		}
	}
}

func TestEncodeRejectsBadSnapshot(t *testing.T) {
	s := minimalSnapshot(t)
	s.Strategy = "WARP"
	if _, err := s.Encode(); err == nil {
		t.Error("encoded unknown strategy")
	}
	s = minimalSnapshot(t)
	s.Model = nil
	if _, err := s.Encode(); err == nil {
		t.Error("encoded snapshot without model")
	}
}

func TestWriteReadFile(t *testing.T) {
	s := fullSnapshot(t)
	path := filepath.Join(t.TempDir(), DefaultName)
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatal("file round trip changed snapshot")
	}
}

// TestWriteFileFailureLeavesNoTemp: a write whose rename fails (the
// target is a directory) returns the error, leaves no temp file, and
// leaves the previous snapshot in the directory readable.
func TestWriteFileFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	prev, want := filepath.Join(dir, DefaultName), fullSnapshot(t)
	if err := want.WriteFile(prev); err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(dir, "taken")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := minimalSnapshot(t).WriteFile(target); err == nil {
		t.Fatal("WriteFile over a directory succeeded")
	}
	if _, err := os.Stat(target + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed write left %s.tmp behind (stat err %v)", target, err)
	}
	got, err := ReadFile(prev)
	if err != nil {
		t.Fatalf("previous snapshot unreadable after a failed write: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("previous snapshot changed by a failed write")
	}
}

func TestLoadModelInto(t *testing.T) {
	m := nn.NewGraphSAGE(4, 8, 3, 2)
	m.Init(graph.NewRNG(1))
	dir := t.TempDir()

	// From a full snapshot.
	s := fullSnapshot(t)
	snapPath := filepath.Join(dir, "snap.aptc")
	if err := s.WriteFile(snapPath); err != nil {
		t.Fatal(err)
	}
	m2 := nn.NewGraphSAGE(4, 8, 3, 2)
	if err := LoadModelInto(m2, snapPath); err != nil {
		t.Fatalf("LoadModelInto(snapshot): %v", err)
	}
	p1, p2 := m.Params(), m2.Params()
	for i := range p1 {
		if p1[i].W.MaxAbsDiff(p2[i].W) != 0 {
			t.Fatalf("param %d differs after snapshot load", i)
		}
	}

	// A bare model section is not a snapshot: rejected, naming the path.
	rawPath := filepath.Join(dir, "model.aptm")
	if err := os.WriteFile(rawPath, EncodeModel(m), 0o644); err != nil {
		t.Fatal(err)
	}
	err := LoadModelInto(nn.NewGraphSAGE(4, 8, 3, 2), rawPath)
	if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), rawPath) {
		t.Fatalf("LoadModelInto(raw) = %v, want ErrMalformed naming %s", err, rawPath)
	}
}

// FuzzDecode asserts the decoder never panics and that every accepted
// input re-encodes to exactly the bytes that produced it — the
// canonical-encoding invariant the resume checksum tests lean on.
func FuzzDecode(f *testing.F) {
	m := nn.NewGraphSAGE(4, 4, 2, 1)
	m.Init(graph.NewRNG(1))
	full := &Snapshot{
		Strategy:   "DNP",
		Int8Frac:   0.125,
		Seed:       3,
		Devices:    1,
		EpochsDone: 1,
		Model:      EncodeModel(m),
		Opt:        &nn.OptState{Kind: "adam", Step: 4, M: [][]float32{{1}}, V: [][]float32{{2}}},
		SamplerRNG: [][4]uint64{{1, 2, 3, 4}},
		EpochRNG:   [4]uint64{5, 6, 7, 8},
		Freq:       []int64{1, 0, 2},
		Adaptive:   &AdaptiveState{Cooldown: 1, CalBuild: 1.25, CalTrain: 0.5, GradOverlap: 0.75},
	}
	if b, err := full.Encode(); err == nil {
		f.Add(b)
		f.Add(b[:12])
		f.Add(b[:len(b)-3])
	}
	f.Add([]byte{})
	f.Add([]byte("APTS"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		b2, err := s.Encode()
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		if !bytes.Equal(data, b2) {
			t.Fatalf("decode∘encode not identity:\n in %x\nout %x", data, b2)
		}
	})
}
