package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/tensor"
)

// testReq is the stand-in for the engine's opaque Payload.Data types;
// the id is far from the engine's range so both registries can load in
// one test binary.
type testReq struct {
	IDs  []int32
	Ptrs []int64
}

func init() {
	RegisterData(200, (*testReq)(nil), DataCodec{
		Encode: func(e *Encoder, v any) {
			q := v.(*testReq)
			if q == nil {
				e.U8(0)
				return
			}
			e.U8(1)
			e.I32s(q.IDs)
			e.I64s(q.Ptrs)
		},
		Decode: func(d *Decoder) any {
			if !d.Presence() {
				return (*testReq)(nil)
			}
			return &testReq{IDs: d.I32s(), Ptrs: d.I64s()}
		},
	})
}

func mustEncode(t *testing.T, p comm.Payload) []byte {
	t.Helper()
	b, err := AppendPayload(nil, p)
	if err != nil {
		t.Fatalf("AppendPayload: %v", err)
	}
	return b
}

// TestPayloadGolden pins the wire format: these bytes are the
// protocol, and any codec change that alters them is a breaking wire
// revision that must bump wireVersion.
func TestPayloadGolden(t *testing.T) {
	p := comm.Payload{
		Mat:   tensor.FromData(2, 2, []float32{1, 2, 3, 4}),
		Ints:  []int32{5, -1},
		Bytes: 7,
	}
	want := "01" + "03" + "0700000000000000" +
		"02000000" + "02000000" + "0000803f" + "00000040" + "00004040" + "00008040" +
		"02000000" + "05000000" + "ffffffff"
	got := hex.EncodeToString(mustEncode(t, p))
	if got != want {
		t.Fatalf("golden mismatch:\n got  %s\n want %s", got, want)
	}
}

func TestMatrixGolden(t *testing.T) {
	b := AppendMatrix(nil, tensor.FromData(1, 3, []float32{0, -2, 0.5}))
	want := "01000000" + "03000000" + "00000000" + "000000c0" + "0000003f"
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("golden mismatch:\n got  %s\n want %s", got, want)
	}
}

func payloadEqual(a, b comm.Payload) bool {
	if a.Bytes != b.Bytes {
		return false
	}
	if (a.Mat == nil) != (b.Mat == nil) {
		return false
	}
	if a.Mat != nil {
		if a.Mat.Rows != b.Mat.Rows || a.Mat.Cols != b.Mat.Cols {
			return false
		}
		// Bit-exact, not approximately: the wire must move floats
		// unchanged or distributed training diverges from in-process.
		for i := range a.Mat.Data {
			if math32bits(a.Mat.Data[i]) != math32bits(b.Mat.Data[i]) {
				return false
			}
		}
	}
	if (a.Ints == nil) != (b.Ints == nil) || !reflect.DeepEqual(append([]int32{}, a.Ints...), append([]int32{}, b.Ints...)) {
		return false
	}
	return reflect.DeepEqual(a.Data, b.Data)
}

func math32bits(f float32) uint32 {
	return math.Float32bits(f)
}

func TestPayloadRoundTrip(t *testing.T) {
	cases := map[string]comm.Payload{
		"empty":     {},
		"bytesOnly": {Bytes: 123456789},
		"mat":       {Mat: tensor.FromData(3, 2, []float32{1, -1, 0.25, 3e30, -0, 42})},
		"matEmpty":  {Mat: tensor.FromData(0, 5, nil)},
		"ints":      {Ints: []int32{1, 2, 3, -4}},
		"intsEmpty": {Ints: []int32{}},
		"dataNil":   {Data: (*testReq)(nil)},
		"data":      {Data: &testReq{IDs: []int32{7, 8}, Ptrs: []int64{0, 2}}},
		"all": {
			Mat:   tensor.FromData(1, 1, []float32{9}),
			Ints:  []int32{-5},
			Data:  &testReq{IDs: []int32{1}, Ptrs: []int64{0, 1}},
			Bytes: 10,
		},
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			b := mustEncode(t, p)
			got, err := DecodePayload(b)
			if err != nil {
				t.Fatalf("DecodePayload: %v", err)
			}
			if !payloadEqual(p, got) {
				t.Fatalf("round trip changed payload:\n sent %+v\n got  %+v", p, got)
			}
			// Re-encoding the decoded payload must reproduce the exact
			// bytes: the format has one canonical encoding per value.
			b2, err := AppendPayload(nil, got)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(b, b2) {
				t.Fatalf("re-encode differs:\n first  %x\n second %x", b, b2)
			}
		})
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	full := mustEncode(t, comm.Payload{
		Mat:  tensor.FromData(2, 3, []float32{1, 2, 3, 4, 5, 6}),
		Ints: []int32{1, 2, 3},
		Data: &testReq{IDs: []int32{9}, Ptrs: []int64{0}},
	})
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodePayload(full[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(full))
		}
	}
	// A clean cut mid-matrix is specifically a truncation error.
	if _, err := DecodePayload(full[:14]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

func TestDecodeRejectsCorruptHeader(t *testing.T) {
	full := mustEncode(t, comm.Payload{Ints: []int32{1}})

	bad := append([]byte{}, full...)
	bad[0] = 99
	if _, err := DecodePayload(bad); !errors.Is(err, ErrVersion) {
		t.Fatalf("version: want ErrVersion, got %v", err)
	}

	bad = append([]byte{}, full...)
	bad[1] |= 0x80
	if _, err := DecodePayload(bad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("flags: want ErrMalformed, got %v", err)
	}

	if _, err := DecodePayload(append(append([]byte{}, full...), 0)); !errors.Is(err, ErrTrailing) {
		t.Fatalf("trailing: want ErrTrailing, got %v", err)
	}
}

func TestDecodeRejectsHugeCount(t *testing.T) {
	// Ints count claims 2^31 elements in a 12-byte body: the count
	// guard must reject it without attempting the allocation.
	var e Encoder
	e.U8(wireVersion)
	e.U8(flagInts)
	e.I64(0)
	e.U32(1 << 31)
	if _, err := DecodePayload(e.B); !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

// TestDecoderFailureIsSticky: once a read fails, every later read
// returns zero even where bytes remain, so a length read after a
// rejected count cannot size an allocation from the bytes that follow.
func TestDecoderFailureIsSticky(t *testing.T) {
	for name, read := range map[string]func(*Decoder){
		"count":    func(d *Decoder) { d.TakeBytes() },
		"presence": func(d *Decoder) { d.Presence() },
	} {
		var e Encoder
		e.U32(1 << 30) // a byte-string length past the end
		e.U32(0xffffffff)
		e.U64(7)
		if name == "presence" {
			e.B[0] = 2 // a presence byte that is neither 0 nor 1
		}
		d := NewDecoder(e.B)
		read(d)
		if d.Err() == nil {
			t.Fatalf("%s: the first read did not fail", name)
		}
		if n, v, r := d.U32(), d.U64(), d.Remaining(); n != 0 || v != 0 || r != 0 {
			t.Errorf("%s: after a failure U32 = %d, U64 = %d, Remaining = %d; want zeros", name, n, v, r)
		}
	}
}

func TestDecodeRejectsUnknownData(t *testing.T) {
	var e Encoder
	e.U8(wireVersion)
	e.U8(flagData)
	e.I64(0)
	e.U8(250) // never registered
	e.Bytes([]byte{1})
	if _, err := DecodePayload(e.B); !errors.Is(err, ErrUnknownData) {
		t.Fatalf("want ErrUnknownData, got %v", err)
	}
	if _, err := AppendPayload(nil, comm.Payload{Data: "a string"}); !errors.Is(err, ErrUnknownData) {
		t.Fatalf("encode of unregistered type: want ErrUnknownData, got %v", err)
	}
}

func FuzzDecodePayload(f *testing.F) {
	seeds := []comm.Payload{
		{},
		{Mat: tensor.FromData(2, 2, []float32{1, 2, 3, 4}), Ints: []int32{5}, Bytes: 7},
		{Data: &testReq{IDs: []int32{1, 2}, Ptrs: []int64{0, 2}}},
		{Data: (*testReq)(nil)},
	}
	for _, p := range seeds {
		b, err := AppendPayload(nil, p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodePayload(b) // must never panic or overallocate
		if err != nil {
			return
		}
		// Anything that decodes must re-encode to the identical bytes:
		// decode is the inverse of the one canonical encoding.
		b2, err := AppendPayload(nil, p)
		if err != nil {
			t.Fatalf("decoded payload failed to re-encode: %v", err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", b, b2)
		}
	})
}
