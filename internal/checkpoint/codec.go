package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/nn"
	"repro/internal/strategy"
	"repro/internal/transport"
)

// Snapshot container format. All integers little-endian:
//
//	u32 magic "APTS"
//	u32 version (snapVersion)
//	u32 section count
//	per section: u8 id, u32 bodyLen, body, u32 crc32(IEEE, body)
//
// Sections appear in strictly increasing id order, at most once each;
// meta and model are mandatory, opt/rng/freq/adaptive optional. The ordering
// rule plus presence-byte discipline inside bodies makes the encoding
// canonical: decoding and re-encoding any accepted file reproduces it
// byte for byte (the fuzz harness pins this), so no two byte strings
// decode to the same snapshot.
//
// The meta and adaptive bodies:
//
//	meta:     u32 len, strategy name, f64 int8 fraction, u64 seed,
//	          u32 devices, u32 epochs done
//	adaptive: u32 cooldown, f64 calibration build, load-host, shuffle,
//	          train, f64 gradient overlap
//
// A snapshot holds only state a resume reads: what a resume derives
// again from the task, such as the dry run's per-strategy statistics,
// is not stored. Version-1 files, which carried such fields, are
// refused with ErrVersion.
//
// The model section's body carries one replica's parameters:
//
//	u32 magic "APTM", u32 version (modelVersion)
//	u32 len, model family name
//	u32 parameter count
//	per parameter: u32 len, name, u32 rows, u32 cols, rows*cols f32
//
// Only parameter values are stored: the architecture comes from the
// caller's model, and DecodeModel checks the family, the names and the
// shapes against it. The container does not parse this body.

// snapVersion is the container version; bump on any layout change.
const snapVersion = 2

// snapMagic identifies snapshot files ("APTS" read as a little-endian
// word from the on-disk bytes 'S' 'T' 'P' 'A').
const snapMagic uint32 = 0x41505453

// modelMagic ("APTM") and modelVersion head the model section; bump
// modelVersion on any change to its layout.
const (
	modelMagic   uint32 = 0x4150544d
	modelVersion uint32 = 2
)

// DefaultMaxSectionBytes bounds one section body. Model parameters
// dominate real snapshots; anything near this limit is a corrupt or
// hostile length prefix.
const DefaultMaxSectionBytes = 1 << 30

// Section ids, in their mandatory file order.
const (
	secMeta     = 1
	secModel    = 2
	secOpt      = 3
	secRNG      = 4
	secFreq     = 5
	secAdaptive = 6
)

// Typed codec errors, mirroring the transport wire codec's taxonomy.
// Decode wraps them with context; test with errors.Is.
var (
	// ErrTruncated marks a file shorter than its own structure claims.
	ErrTruncated = errors.New("checkpoint: truncated snapshot")
	// ErrOversized marks a section whose declared length exceeds the
	// section size limit.
	ErrOversized = errors.New("checkpoint: section exceeds size limit")
	// ErrBadCRC marks a section whose body fails its CRC32 frame check.
	ErrBadCRC = errors.New("checkpoint: section CRC mismatch")
	// ErrVersion marks a snapshot from an unsupported container version.
	ErrVersion = errors.New("checkpoint: unsupported snapshot version")
	// ErrUnknownSection marks a section id this version does not know.
	ErrUnknownSection = errors.New("checkpoint: unknown section")
	// ErrTrailing marks bytes left over after the declared sections.
	ErrTrailing = errors.New("checkpoint: trailing bytes after snapshot")
	// ErrMalformed marks a structurally invalid snapshot (bad magic,
	// missing mandatory section, out-of-order sections, impossible
	// field values) whose framing was otherwise intact.
	ErrMalformed = errors.New("checkpoint: malformed snapshot")
)

// Encode renders the snapshot in the canonical container format.
func (s *Snapshot) Encode() ([]byte, error) {
	if _, err := strategy.Parse(s.Strategy); err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	if len(s.Model) == 0 {
		return nil, fmt.Errorf("checkpoint: encode: snapshot has no model parameters")
	}
	type section struct {
		id   uint8
		body []byte
	}
	sections := []section{
		{secMeta, s.encodeMeta()},
		{secModel, s.Model},
	}
	if s.Opt != nil {
		sections = append(sections, section{secOpt, encodeOpt(s.Opt)})
	}
	if s.HasRNG() {
		sections = append(sections, section{secRNG, s.encodeRNG()})
	}
	if s.Freq != nil {
		var e transport.Encoder
		e.I64s(s.Freq)
		sections = append(sections, section{secFreq, e.B})
	}
	if s.Adaptive != nil {
		sections = append(sections, section{secAdaptive, encodeAdaptive(s.Adaptive)})
	}
	var e transport.Encoder
	e.U32(snapMagic)
	e.U32(snapVersion)
	e.U32(uint32(len(sections)))
	for _, sec := range sections {
		e.U8(sec.id)
		e.U32(uint32(len(sec.body)))
		e.B = append(e.B, sec.body...)
		e.U32(crc32.ChecksumIEEE(sec.body))
	}
	return e.B, nil
}

func (s *Snapshot) encodeMeta() []byte {
	var e transport.Encoder
	e.Bytes([]byte(s.Strategy))
	e.U64(math.Float64bits(s.Int8Frac))
	e.U64(s.Seed)
	e.U32(uint32(s.Devices))
	e.U32(uint32(s.EpochsDone))
	return e.B
}

func (s *Snapshot) encodeRNG() []byte {
	var e transport.Encoder
	e.U32(uint32(len(s.SamplerRNG)))
	for _, st := range s.SamplerRNG {
		for _, w := range st {
			e.U64(w)
		}
	}
	for _, w := range s.EpochRNG {
		e.U64(w)
	}
	return e.B
}

// EncodeModel renders m's parameters as a snapshot's model section.
func EncodeModel(m *nn.Model) []byte {
	params := m.Params()
	var e transport.Encoder
	e.U32(modelMagic)
	e.U32(modelVersion)
	e.Bytes([]byte(m.Name))
	e.U32(uint32(len(params)))
	for _, p := range params {
		e.Bytes([]byte(p.Name))
		e.B = transport.AppendMatrix(e.B, p.W)
	}
	return e.B
}

// DecodeModel loads a model section written by EncodeModel into m. The
// section must be of m's model family and hold exactly m's parameters,
// by name and shape, in m's order, with nothing after the last; m is
// left unchanged unless it does. A section that ends early is
// ErrTruncated, any other mismatch ErrMalformed; past the header, both
// name the parameter they stopped at.
func DecodeModel(m *nn.Model, b []byte) error {
	d := transport.NewDecoder(b)
	magic, version := d.U32(), d.U32()
	name := d.TakeBytes()
	count := int(d.U32())
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: model header: %v", ErrTruncated, err)
	}
	params := m.Params()
	switch {
	case magic != modelMagic:
		return fmt.Errorf("%w: model section magic %#x", ErrMalformed, magic)
	case version != modelVersion:
		return fmt.Errorf("%w: model section version %d, want %d", ErrMalformed, version, modelVersion)
	case string(name) != m.Name:
		return fmt.Errorf("%w: model section holds a %q model, this model is %q", ErrMalformed, name, m.Name)
	case count != len(params):
		return fmt.Errorf("%w: model section has %d params, model has %d", ErrMalformed, count, len(params))
	}
	data := make([][]float32, len(params))
	for i, p := range params {
		name := d.TakeBytes()
		rows, cols := int(d.U32()), int(d.U32())
		if err := d.Err(); err != nil {
			return fmt.Errorf("%w: model param %s: %v", ErrTruncated, p.Name, err)
		}
		if string(name) != p.Name {
			return fmt.Errorf("%w: model param %q, model expects %q", ErrMalformed, name, p.Name)
		}
		if rows != p.W.Rows || cols != p.W.Cols {
			return fmt.Errorf("%w: model param %s shape %dx%d, model expects %dx%d",
				ErrMalformed, p.Name, rows, cols, p.W.Rows, p.W.Cols)
		}
		if data[i] = d.F32s(len(p.W.Data)); d.Err() != nil {
			return fmt.Errorf("%w: model param %s: %v", ErrTruncated, p.Name, d.Err())
		}
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d bytes after the last model param", ErrMalformed, d.Remaining())
	}
	for i, p := range params {
		copy(p.W.Data, data[i])
	}
	return nil
}

// encodeOpt renders an optimizer state: kind, step, then per slot a
// presence byte and (when present) the flattened M moment, followed by
// the same structure for V. M and V presence are encoded independently
// per slot, so a state with no V at all (what a never-stepped Adam's
// all-absent V decodes to) and a stepped Adam's (M and V in lockstep)
// share one layout.
func encodeOpt(o *nn.OptState) []byte {
	var e transport.Encoder
	e.Bytes([]byte(o.Kind))
	e.I64(o.Step)
	e.U32(uint32(len(o.M)))
	for i := range o.M {
		encodeMoment(&e, o.M[i])
		var v []float32
		if i < len(o.V) {
			v = o.V[i]
		}
		encodeMoment(&e, v)
	}
	return e.B
}

func encodeMoment(e *transport.Encoder, m []float32) {
	if m == nil {
		e.U8(0)
		return
	}
	e.U8(1)
	e.U32(uint32(len(m)))
	e.F32s(m)
}

// Decode parses one snapshot, rejecting unknown versions, unknown or
// duplicated sections, truncation, CRC mismatches, and trailing bytes.
// Section bodies whose CRC passed but whose contents do not parse are
// ErrMalformed: at that point the file is intact, just not a snapshot.
func Decode(b []byte) (*Snapshot, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("%w: %d bytes, header needs 12", ErrTruncated, len(b))
	}
	if m := binary.LittleEndian.Uint32(b); m != snapMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrMalformed, m)
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != snapVersion {
		return nil, fmt.Errorf("%w: got version %d, want %d", ErrVersion, v, snapVersion)
	}
	nsec := int(binary.LittleEndian.Uint32(b[8:]))
	rest := b[12:]
	s := &Snapshot{}
	lastID := uint8(0)
	for i := 0; i < nsec; i++ {
		if len(rest) < 5 {
			return nil, fmt.Errorf("%w: section %d frame header needs 5 bytes, %d remain",
				ErrTruncated, i, len(rest))
		}
		id := rest[0]
		bodyLen := int(binary.LittleEndian.Uint32(rest[1:]))
		rest = rest[5:]
		if bodyLen > DefaultMaxSectionBytes {
			return nil, fmt.Errorf("%w: section %d declares %d bytes", ErrOversized, id, bodyLen)
		}
		if len(rest) < bodyLen+4 {
			return nil, fmt.Errorf("%w: section %d body+crc needs %d bytes, %d remain",
				ErrTruncated, id, bodyLen+4, len(rest))
		}
		body := rest[:bodyLen]
		sum := binary.LittleEndian.Uint32(rest[bodyLen:])
		rest = rest[bodyLen+4:]
		if got := crc32.ChecksumIEEE(body); got != sum {
			return nil, fmt.Errorf("%w: section %d crc %08x, frame says %08x", ErrBadCRC, id, got, sum)
		}
		if id <= lastID {
			return nil, fmt.Errorf("%w: section %d duplicated or out of order", ErrMalformed, id)
		}
		lastID = id
		var err error
		switch id {
		case secMeta:
			err = s.decodeMeta(body)
		case secModel:
			s.Model = append([]byte(nil), body...)
		case secOpt:
			err = s.decodeOpt(body)
		case secRNG:
			err = s.decodeRNG(body)
		case secFreq:
			err = s.decodeFreq(body)
		case secAdaptive:
			err = s.decodeAdaptive(body)
		default:
			return nil, fmt.Errorf("%w: id %d", ErrUnknownSection, id)
		}
		if err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d bytes", ErrTrailing, len(rest))
	}
	if len(s.Model) == 0 || s.Strategy == "" {
		return nil, fmt.Errorf("%w: missing mandatory meta or model section", ErrMalformed)
	}
	return s, nil
}

func (s *Snapshot) decodeMeta(body []byte) error {
	d := transport.NewDecoder(body)
	s.Strategy = string(d.TakeBytes())
	s.Int8Frac = math.Float64frombits(d.U64())
	s.Seed = d.U64()
	s.Devices = int(d.U32())
	s.EpochsDone = int(d.U32())
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: meta: %v", ErrMalformed, err)
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d bytes after meta fields", ErrMalformed, d.Remaining())
	}
	if _, err := strategy.Parse(s.Strategy); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if math.IsNaN(s.Int8Frac) || s.Int8Frac < 0 || s.Int8Frac >= 1 {
		return fmt.Errorf("%w: int8 fraction %v outside [0, 1)", ErrMalformed, s.Int8Frac)
	}
	if s.Devices <= 0 {
		return fmt.Errorf("%w: %d devices", ErrMalformed, s.Devices)
	}
	return nil
}

func (s *Snapshot) decodeRNG(body []byte) error {
	d := transport.NewDecoder(body)
	n := int(d.U32())
	if d.Err() == nil && n*32 > d.Remaining() {
		return fmt.Errorf("%w: rng section claims %d samplers, %d bytes remain", ErrMalformed, n, d.Remaining())
	}
	if d.Err() == nil && n != s.Devices {
		// Meta always precedes rng, so Devices is already validated.
		return fmt.Errorf("%w: %d rng cursors for %d devices", ErrMalformed, n, s.Devices)
	}
	s.SamplerRNG = make([][4]uint64, n)
	for i := range s.SamplerRNG {
		for w := range s.SamplerRNG[i] {
			s.SamplerRNG[i][w] = d.U64()
		}
	}
	for w := range s.EpochRNG {
		s.EpochRNG[w] = d.U64()
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: rng: %v", ErrMalformed, err)
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d bytes after rng cursors", ErrMalformed, d.Remaining())
	}
	for i, st := range s.SamplerRNG {
		if st == ([4]uint64{}) {
			return fmt.Errorf("%w: sampler %d cursor is the degenerate all-zero xoshiro state", ErrMalformed, i)
		}
	}
	if s.EpochRNG == ([4]uint64{}) {
		return fmt.Errorf("%w: epoch rng cursor is the degenerate all-zero xoshiro state", ErrMalformed)
	}
	return nil
}

func (s *Snapshot) decodeFreq(body []byte) error {
	d := transport.NewDecoder(body)
	s.Freq = d.I64s()
	if s.Freq == nil && d.Err() == nil {
		s.Freq = []int64{} // present-but-empty survives the round trip
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: freq: %v", ErrMalformed, err)
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d bytes after freq vector", ErrMalformed, d.Remaining())
	}
	for i, f := range s.Freq {
		if f < 0 {
			return fmt.Errorf("%w: negative access frequency at node %d", ErrMalformed, i)
		}
	}
	return nil
}

func (s *Snapshot) decodeOpt(body []byte) error {
	d := transport.NewDecoder(body)
	o := &nn.OptState{Kind: string(d.TakeBytes()), Step: d.I64()}
	n := int(d.U32())
	// Every slot carries at least two presence bytes, so a count beyond
	// half the remaining bytes is a corrupt length, not a big snapshot.
	if d.Err() == nil && n > d.Remaining()/2+1 {
		return fmt.Errorf("%w: opt section claims %d slots, %d bytes remain", ErrMalformed, n, d.Remaining())
	}
	o.M = make([][]float32, n)
	o.V = make([][]float32, n)
	anyV := false
	for i := 0; i < n && d.Err() == nil; i++ {
		o.M[i] = decodeMoment(d)
		o.V[i] = decodeMoment(d)
		if o.V[i] != nil {
			anyV = true
		}
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: opt: %v", ErrMalformed, err)
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d bytes after opt moments", ErrMalformed, d.Remaining())
	}
	if o.Kind == "" {
		return fmt.Errorf("%w: opt section has empty kind", ErrMalformed)
	}
	if o.Step < 0 {
		return fmt.Errorf("%w: opt step %d", ErrMalformed, o.Step)
	}
	if !anyV {
		// nn.OptState uses a nil V for optimizers without second
		// moments; all-absent V slots decode back to that form.
		o.V = nil
	}
	s.Opt = o
	return nil
}

func decodeMoment(d *transport.Decoder) []float32 {
	if !d.Presence() {
		return nil
	}
	n := int(d.U32())
	if d.Err() != nil {
		return nil
	}
	v := d.F32s(n) // take() inside guards n against Remaining()
	if v == nil && d.Err() == nil {
		return []float32{}
	}
	return v
}
