package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/comm"
)

// Compression chunk codecs for the ring allreduce (comm.ChunkCodec).
// Training reduces its gradients in exact fp32; these codecs are the
// ring data plane's compressed variants, which the benchmark times.
// Both live here, next to the rest of the wire
// format, because their byte layouts are wire contracts: every rank of
// a job must produce identical encodings for the ring's
// decode-the-owner's-bytes determinism to hold, and the golden tests
// below pin the layouts the same way the payload codec is pinned.
//
//	fp16: n × u16 little-endian IEEE-754 binary16, round-to-nearest-even
//	int8: f32 little-endian scale (maxAbs/127), then n × int8 q where
//	      q = round(v/scale) clamped to [-127, 127]; scale 0 encodes an
//	      all-zero chunk
//
// The compressed chunks cross the TCP backend boxed in
// comm.CompressedChunk under payload-data id 5 (wireDataChunk).

// Chunk codec ids (CompressedChunk.Codec). Distinct namespace from the
// payload-data ids; part of the wire format, never reuse.
const (
	chunkCodecFP16 = 1
	chunkCodecInt8 = 2
)

// wireDataChunk is the Payload.Data wire id for comm.CompressedChunk.
// Ids 1 and 2 belong to the engine's block and request codecs (see
// engine/wirecodec.go), 3 and 4 are retired; the data-id space is
// shared and append-only.
const wireDataChunk = 5

func init() {
	RegisterData(wireDataChunk, (*comm.CompressedChunk)(nil), DataCodec{
		Encode: func(e *Encoder, v any) {
			c := v.(*comm.CompressedChunk)
			if c == nil {
				e.U8(0)
				return
			}
			e.U8(1)
			e.U8(c.Codec)
			e.U32(uint32(c.N))
			e.Bytes(c.B)
		},
		Decode: func(d *Decoder) any {
			if !d.Presence() {
				return (*comm.CompressedChunk)(nil)
			}
			return &comm.CompressedChunk{
				Codec: d.U8(),
				N:     int(d.U32()),
				B:     d.TakeBytes(),
			}
		},
	})
}

// FP16Chunk compresses chunks to IEEE-754 binary16: exact 2× wire
// reduction, ~3 decimal digits of mantissa, no state. Values beyond
// half range saturate to ±Inf and NaN payloads collapse to a canonical
// quiet NaN — acceptable for gradients, which the tolerance-gated
// trajectory tests pin.
type FP16Chunk struct{}

func (FP16Chunk) ChunkID() uint8       { return chunkCodecFP16 }
func (FP16Chunk) Name() string         { return "fp16" }
func (FP16Chunk) EncodedLen(n int) int { return 2 * n }

func (FP16Chunk) EncodeChunk(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint16(dst[2*i:], f32ToF16(v))
	}
}

func (FP16Chunk) DecodeChunk(dst []float32, src []byte) error {
	if len(src) != 2*len(dst) {
		return fmt.Errorf("%w: fp16 chunk of %d bytes for %d values", ErrMalformed, len(src), len(dst))
	}
	for i := range dst {
		dst[i] = f16ToF32(binary.LittleEndian.Uint16(src[2*i:]))
	}
	return nil
}

// Int8Chunk compresses chunks to one int8 per value against a
// per-chunk absmax scale: 4× wire reduction (minus a 4-byte header).
// The quantization is much coarser than fp16.
type Int8Chunk struct{}

func (Int8Chunk) ChunkID() uint8       { return chunkCodecInt8 }
func (Int8Chunk) Name() string         { return "int8" }
func (Int8Chunk) EncodedLen(n int) int { return 4 + n }

func (Int8Chunk) EncodeChunk(dst []byte, src []float32) {
	var maxAbs float32
	for _, v := range src {
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	scale := maxAbs / 127
	binary.LittleEndian.PutUint32(dst, math.Float32bits(scale))
	if scale == 0 {
		for i := range src {
			dst[4+i] = 0
		}
		return
	}
	for i, v := range src {
		q := int32(math.Round(float64(v / scale)))
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[4+i] = byte(int8(q))
	}
}

func (Int8Chunk) DecodeChunk(dst []float32, src []byte) error {
	if len(src) != 4+len(dst) {
		return fmt.Errorf("%w: int8 chunk of %d bytes for %d values", ErrMalformed, len(src), len(dst))
	}
	scale := math.Float32frombits(binary.LittleEndian.Uint32(src))
	for i := range dst {
		dst[i] = float32(int8(src[4+i])) * scale
	}
	return nil
}

// ChunkCodecByName maps a codec name ("", "fp32", "fp16", "int8") to
// the ChunkCodec the ring data plane takes; nil means exact fp32 (no
// compression).
func ChunkCodecByName(name string) (comm.ChunkCodec, error) {
	switch name {
	case "", "fp32", "none":
		return nil, nil
	case "fp16":
		return FP16Chunk{}, nil
	case "int8":
		return Int8Chunk{}, nil
	default:
		return nil, fmt.Errorf("transport: unknown chunk codec %q (want fp32, fp16 or int8)", name)
	}
}

// f32ToF16 converts to IEEE-754 binary16 with round-to-nearest-even,
// saturating overflow to infinity and canonicalizing NaNs.
func f32ToF16(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23&0xff) - 127 + 15
	man := b & 0x7fffff
	if exp >= 0x1f {
		if b&0x7fffffff > 0x7f800000 {
			return sign | 0x7e00 // NaN
		}
		return sign | 0x7c00 // Inf / overflow far beyond rounding reach
	}
	if exp <= 0 {
		// Subnormal half (or underflow to zero). Values below half the
		// smallest subnormal round to signed zero.
		if exp < -10 {
			return sign
		}
		man |= 0x800000
		shift := uint32(14 - exp)
		half := sign | uint16(man>>shift)
		rem := man & (1<<shift - 1)
		mid := uint32(1) << (shift - 1)
		if rem > mid || (rem == mid && half&1 == 1) {
			half++
		}
		return half
	}
	half := sign | uint16(exp)<<10 | uint16(man>>13)
	rem := man & 0x1fff
	if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
		half++ // carries through the exponent, saturating 65520+ to Inf
	}
	return half
}

// f16ToF32 converts from IEEE-754 binary16 (exact, every half value is
// representable in float32).
func f16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	man := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign) // ±0
		}
		e := uint32(127 - 15 + 1)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		man &= 0x3ff
		return math.Float32frombits(sign | e<<23 | man<<13)
	case exp == 0x1f:
		if man == 0 {
			return math.Float32frombits(sign | 0x7f800000) // ±Inf
		}
		return math.Float32frombits(sign | 0x7fc00000 | man<<13) // NaN
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
	}
}
