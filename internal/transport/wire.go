package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"

	"repro/internal/comm"
	"repro/internal/tensor"
)

// Wire format. Every payload crossing a socket is one length-prefixed
// frame: a uint32 little-endian body length followed by the body. The
// body is the versioned payload encoding below; all integers are
// little-endian, floats are IEEE-754 bit patterns.
//
//	u8   version (wireVersion)
//	u8   flags   (flagMat | flagInts | flagData)
//	i64  Bytes field of the payload
//	mat  (if flagMat):  u32 rows, u32 cols, rows*cols f32
//	ints (if flagInts): u32 count, count i32
//	data (if flagData): u8 type id, u32 body length, codec body
//
// The encoding is self-delimiting and canonical: encoding the decoded
// value reproduces the input bytes, which the golden tests pin so the
// format cannot drift silently between releases.

// wireVersion is the payload-encoding version; bump on any layout
// change. Decoders reject frames from other versions with ErrVersion.
const wireVersion = 1

// wireMagic identifies APT wire streams in connection handshakes
// ("APTW" big-endian).
const wireMagic uint32 = 0x41505457

// DefaultMaxFrameBytes bounds a single frame (body length). Collective
// payloads are mini-batch-sized; anything near this limit indicates a
// corrupt or hostile length prefix.
const DefaultMaxFrameBytes = 1 << 30

// Typed codec errors. Decoders wrap them with context; test with
// errors.Is.
var (
	// ErrTruncated marks a frame shorter than its own structure claims.
	ErrTruncated = errors.New("transport: truncated frame")
	// ErrOversized marks a frame whose declared length exceeds the
	// transport's frame limit.
	ErrOversized = errors.New("transport: frame exceeds size limit")
	// ErrVersion marks a frame encoded under an unsupported wire version.
	ErrVersion = errors.New("transport: unsupported wire version")
	// ErrUnknownData marks a payload whose Data type id has no
	// registered codec on this side.
	ErrUnknownData = errors.New("transport: unregistered payload data type")
	// ErrTrailing marks a frame with bytes left over after a complete
	// decode — a codec mismatch between sender and receiver.
	ErrTrailing = errors.New("transport: trailing bytes after payload")
	// ErrMalformed marks a structurally invalid frame (bad flag bits,
	// impossible dimensions).
	ErrMalformed = errors.New("transport: malformed frame")
)

const (
	flagMat  = 1 << 0
	flagInts = 1 << 1
	flagData = 1 << 2
)

// Encoder appends little-endian primitives to a byte buffer. The zero
// value is ready to use; B holds the encoded bytes.
type Encoder struct {
	B []byte
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.B = append(e.B, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }

// I64 appends a little-endian int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// I32s appends a u32 count followed by the elements.
func (e *Encoder) I32s(vs []int32) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.U32(uint32(v))
	}
}

// I64s appends a u32 count followed by the elements.
func (e *Encoder) I64s(vs []int64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.U64(uint64(v))
	}
}

// F32s appends the raw elements (no count — callers encode dimensions
// themselves, as the matrix codec does).
func (e *Encoder) F32s(vs []float32) {
	for _, v := range vs {
		e.U32(math.Float32bits(v))
	}
}

// Bytes appends a u32 length followed by the bytes.
func (e *Encoder) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.B = append(e.B, b...)
}

// Decoder consumes little-endian primitives from a byte buffer with a
// sticky error: after the first failure every read returns zero values
// and Err reports the cause.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder wraps b for decoding.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decode error, nil if all reads succeeded.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// take returns the next n bytes, or nil after marking truncation.
func (d *Decoder) take(n int) []byte {
	if n < 0 || d.Remaining() < n {
		d.fail(fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, n, d.Remaining()))
		d.off = len(d.b)
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// count reads a u32 element count and validates it against the bytes
// actually remaining (width bytes per element), so a corrupt count can
// never drive an outsized allocation.
func (d *Decoder) count(width int) int {
	n := int(d.U32())
	if d.err == nil && n*width > d.Remaining() {
		d.fail(fmt.Errorf("%w: count %d exceeds %d remaining bytes", ErrTruncated, n, d.Remaining()))
		return 0
	}
	return n
}

// I32s reads a u32 count followed by the elements.
func (d *Decoder) I32s() []int32 {
	n := d.count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(d.U32())
	}
	return vs
}

// I64s reads a u32 count followed by the elements.
func (d *Decoder) I64s() []int64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(d.U64())
	}
	return vs
}

// F32s reads exactly n raw elements.
func (d *Decoder) F32s(n int) []float32 {
	b := d.take(4 * n)
	if b == nil {
		return nil
	}
	vs := make([]float32, n)
	for i := range vs {
		vs[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return vs
}

// Presence reads a codec-level presence byte: 0 for nil, 1 for
// present. Any other value is rejected as malformed — the format has
// one canonical encoding per value, and a sloppy boolean would break
// that (the fuzz harness asserts decode∘encode is the identity).
func (d *Decoder) Presence() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("%w: presence byte not 0/1", ErrMalformed))
		return false
	}
}

// TakeBytes reads a u32 length followed by that many bytes.
func (d *Decoder) TakeBytes() []byte {
	n := d.count(1)
	if d.err != nil {
		return nil
	}
	return d.take(n)
}

// AppendMatrix appends the wire encoding of m (u32 rows, u32 cols,
// row-major f32 data) to dst.
func AppendMatrix(dst []byte, m *tensor.Matrix) []byte {
	e := Encoder{B: dst}
	e.U32(uint32(m.Rows))
	e.U32(uint32(m.Cols))
	e.F32s(m.Data)
	return e.B
}

// DecodeMatrix reads one matrix. The receiver owns the result (it is
// heap-allocated, never pooled: wire-decoded tensors have no Put site,
// so handing them to the pool would poison its pairing invariant).
func DecodeMatrix(d *Decoder) *tensor.Matrix {
	rows := int(d.U32())
	cols := int(d.U32())
	if d.Err() != nil {
		return nil
	}
	if rows < 0 || cols < 0 || (cols != 0 && rows > (d.Remaining()/4)/cols) || rows*cols*4 > d.Remaining() {
		d.fail(fmt.Errorf("%w: matrix %dx%d exceeds %d remaining bytes", ErrTruncated, rows, cols, d.Remaining()))
		return nil
	}
	data := d.F32s(rows * cols)
	if d.Err() != nil {
		return nil
	}
	return tensor.FromData(rows, cols, data)
}

// DataCodec encodes one concrete Payload.Data type. Encode must accept
// a typed-nil value of the registered type (the engine ships typed
// nils for empty request slots); Decode must reproduce it.
type DataCodec struct {
	// Encode appends v's body to the encoder.
	Encode func(e *Encoder, v any)
	// Decode reads one body and returns the value.
	Decode func(d *Decoder) any
}

var (
	dataMu     sync.RWMutex
	dataByID   = map[uint8]DataCodec{}
	dataByType = map[reflect.Type]uint8{}
)

// RegisterData installs the codec for the concrete type of prototype
// under the given wire id. Ids are part of the wire format: both ends
// of a connection must register the same (id, type, codec) triples —
// the engine does so in an init, so every aptrun binary agrees.
// Duplicate ids or types panic (a silent overwrite would corrupt the
// format).
func RegisterData(id uint8, prototype any, c DataCodec) {
	t := reflect.TypeOf(prototype)
	if t == nil || c.Encode == nil || c.Decode == nil {
		panic("transport: RegisterData requires a typed prototype and a complete codec")
	}
	dataMu.Lock()
	defer dataMu.Unlock()
	if _, dup := dataByID[id]; dup {
		panic(fmt.Sprintf("transport: data codec id %d registered twice", id))
	}
	if _, dup := dataByType[t]; dup {
		panic(fmt.Sprintf("transport: data codec for %v registered twice", t))
	}
	dataByID[id] = c
	dataByType[t] = id
}

func lookupDataID(v any) (uint8, DataCodec, bool) {
	dataMu.RLock()
	defer dataMu.RUnlock()
	id, ok := dataByType[reflect.TypeOf(v)]
	if !ok {
		return 0, DataCodec{}, false
	}
	return id, dataByID[id], true
}

func lookupData(id uint8) (DataCodec, bool) {
	dataMu.RLock()
	defer dataMu.RUnlock()
	c, ok := dataByID[id]
	return c, ok
}

// AppendPayload appends the versioned wire encoding of p to dst. It
// fails only when p.Data has a concrete type with no registered codec.
func AppendPayload(dst []byte, p comm.Payload) ([]byte, error) {
	e := Encoder{B: dst}
	var flags uint8
	if p.Mat != nil {
		flags |= flagMat
	}
	if p.Ints != nil {
		flags |= flagInts
	}
	if p.Data != nil {
		flags |= flagData
	}
	e.U8(wireVersion)
	e.U8(flags)
	e.I64(p.Bytes)
	if p.Mat != nil {
		e.B = AppendMatrix(e.B, p.Mat)
	}
	if p.Ints != nil {
		e.I32s(p.Ints)
	}
	if p.Data != nil {
		id, codec, ok := lookupDataID(p.Data)
		if !ok {
			return dst, fmt.Errorf("%w: %T (RegisterData it)", ErrUnknownData, p.Data)
		}
		e.U8(id)
		lenAt := len(e.B)
		e.U32(0) // body length back-patched below
		codec.Encode(&e, p.Data)
		binary.LittleEndian.PutUint32(e.B[lenAt:], uint32(len(e.B)-lenAt-4))
	}
	return e.B, nil
}

// DecodePayload decodes one complete payload body, rejecting unknown
// versions, unregistered data types, truncation, and trailing bytes.
func DecodePayload(b []byte) (comm.Payload, error) {
	d := NewDecoder(b)
	var p comm.Payload
	if v := d.U8(); d.Err() == nil && v != wireVersion {
		return p, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, wireVersion)
	}
	flags := d.U8()
	if d.Err() == nil && flags&^uint8(flagMat|flagInts|flagData) != 0 {
		return p, fmt.Errorf("%w: unknown flag bits %#x", ErrMalformed, flags)
	}
	p.Bytes = d.I64()
	if flags&flagMat != 0 {
		p.Mat = DecodeMatrix(d)
	}
	if flags&flagInts != 0 {
		p.Ints = d.I32s()
		if p.Ints == nil && d.Err() == nil {
			p.Ints = []int32{} // present-but-empty survives the round trip
		}
	}
	if flags&flagData != 0 {
		id := d.U8()
		body := d.TakeBytes()
		if d.Err() == nil {
			codec, ok := lookupData(id)
			if !ok {
				return comm.Payload{}, fmt.Errorf("%w: id %d", ErrUnknownData, id)
			}
			bd := NewDecoder(body)
			p.Data = codec.Decode(bd)
			if bd.Err() != nil {
				return comm.Payload{}, bd.Err()
			}
			if bd.Remaining() != 0 {
				return comm.Payload{}, fmt.Errorf("%w: %d bytes after data body", ErrTrailing, bd.Remaining())
			}
		}
	}
	if err := d.Err(); err != nil {
		return comm.Payload{}, err
	}
	if d.Remaining() != 0 {
		return comm.Payload{}, fmt.Errorf("%w: %d bytes", ErrTrailing, d.Remaining())
	}
	return p, nil
}
