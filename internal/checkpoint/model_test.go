package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/nn"
)

// TestModelSectionGolden pins the model section's layout: these bytes
// ARE the body of every snapshot's model section, so a change here is
// a format break that must bump modelVersion.
func TestModelSectionGolden(t *testing.T) {
	m := nn.NewGraphSAGE(1, 1, 1, 1) // one parameter, sage0.W, 1x1
	m.Params()[0].W.Data[0] = 0.5
	const want = "" +
		"4d545041" + // magic "APTM" (little-endian)
		"02000000" + // version 2
		"09000000" + "477261706853414745" + // family "GraphSAGE"
		"01000000" + // 1 parameter
		"07000000" + "73616765302e57" + // name "sage0.W"
		"01000000" + "01000000" + // 1x1
		"0000003f" // float32(0.5)
	if got := hex.EncodeToString(EncodeModel(m)); got != want {
		t.Fatalf("golden mismatch:\n got %s\nwant %s", got, want)
	}
}

// sameParams reports whether a and b hold bit-identical parameters.
func sameParams(a, b *nn.Model) bool {
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		for j, v := range pa[i].W.Data {
			if math.Float32bits(v) != math.Float32bits(pb[i].W.Data[j]) {
				return false
			}
		}
	}
	return true
}

// roundTrip encodes an initialised model from newModel and decodes it
// into a fresh one, which must then hold bit-identical parameters.
func roundTrip(t *testing.T, newModel func() *nn.Model) {
	t.Helper()
	m := newModel()
	m.Init(graph.NewRNG(5))
	got := newModel()
	if err := DecodeModel(got, EncodeModel(m)); err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	if !sameParams(m, got) {
		t.Fatalf("%s: params differ after round trip", m.Name)
	}
}

func TestModelRoundTrip(t *testing.T) {
	roundTrip(t, func() *nn.Model { return nn.NewGraphSAGE(8, 16, 4, 2) })
}

func TestModelRoundTripGAT(t *testing.T) {
	roundTrip(t, func() *nn.Model { return nn.NewGAT(6, 4, 2, 3, 2) })
}

// TestDecodeModelRejectsMismatchedArchitecture: a section of another
// shape, parameter count or model family is ErrMalformed, and a shape
// mismatch names the parameter.
func TestDecodeModelRejectsMismatchedArchitecture(t *testing.T) {
	m := nn.NewGraphSAGE(8, 16, 4, 2)
	m.Init(graph.NewRNG(1))
	b := EncodeModel(m)
	wrongShape := nn.NewGraphSAGE(8, 32, 4, 2)
	for _, c := range []struct {
		name   string
		target *nn.Model
		want   string
	}{
		{"wrong shape", wrongShape, wrongShape.Params()[0].Name},
		{"wrong count", nn.NewGraphSAGE(8, 16, 4, 3), "params"},
		{"wrong family", nn.NewGAT(8, 8, 2, 4, 2), `"GraphSAGE"`},
	} {
		err := DecodeModel(c.target, b)
		if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want ErrMalformed naming %s", c.name, err, c.want)
		}
	}
}

// TestDecodeModelTruncated cuts the section at every byte: each prefix
// is ErrTruncated and leaves the target model as it was.
func TestDecodeModelTruncated(t *testing.T) {
	m := nn.NewGraphSAGE(4, 4, 2, 2)
	m.Init(graph.NewRNG(1))
	b := EncodeModel(m)
	target := nn.NewGraphSAGE(4, 4, 2, 2)
	target.Init(graph.NewRNG(2))
	before := EncodeModel(target)
	for n := 0; n < len(b); n++ {
		if err := DecodeModel(target, b[:n]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrTruncated", n, len(b), err)
		}
	}
	if !bytes.Equal(EncodeModel(target), before) {
		t.Fatal("a rejected section changed the target model")
	}
}

func TestDecodeModelRejectsTrailingBytes(t *testing.T) {
	m := nn.NewGraphSAGE(8, 16, 4, 2)
	m.Init(graph.NewRNG(1))
	b := EncodeModel(m)
	for _, extra := range [][]byte{{0}, bytes.Repeat([]byte{0xab}, 17), b} {
		data := append(append([]byte(nil), b...), extra...)
		if err := DecodeModel(nn.NewGraphSAGE(8, 16, 4, 2), data); !errors.Is(err, ErrMalformed) {
			t.Errorf("%d trailing bytes: err = %v, want ErrMalformed", len(extra), err)
		}
	}
}

func TestDecodeModelRejectsVersion1(t *testing.T) {
	// A version-1 section is the version-2 layout minus the model-name
	// field: rewrite the header of a fresh encoding to the old version.
	// No snapshot ever held one, so it is rejected like any other
	// version.
	m := nn.NewGraphSAGE(8, 16, 4, 2)
	m.Init(graph.NewRNG(1))
	v2 := EncodeModel(m)
	nameLen := int(binary.LittleEndian.Uint32(v2[8:]))
	v1 := append([]byte(nil), v2[:8]...)
	v1[4] = 1 // version
	v1 = append(v1, v2[12+nameLen:]...)
	if err := DecodeModel(nn.NewGraphSAGE(8, 16, 4, 2), v1); !errors.Is(err, ErrMalformed) {
		t.Fatalf("version-1 section: err = %v, want ErrMalformed", err)
	}
}

func TestDecodeModelRejectsGarbage(t *testing.T) {
	if err := DecodeModel(nn.NewGraphSAGE(4, 4, 2, 1), make([]byte, 64)); !errors.Is(err, ErrMalformed) {
		t.Errorf("garbage section: err = %v, want ErrMalformed", err)
	}
}

// FuzzDecodeModel checks the model-section decoder never panics or
// over-allocates on corrupt input, rejects it with a typed error and
// leaves the model untouched, and that every accepted section
// re-encodes to exactly its input bytes.
func FuzzDecodeModel(f *testing.F) {
	m := nn.NewGraphSAGE(4, 4, 2, 1)
	m.Init(graph.NewRNG(1))
	valid := EncodeModel(m)
	f.Add(valid)
	f.Add(valid[:8])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		target := nn.NewGraphSAGE(4, 4, 2, 1)
		before := EncodeModel(target)
		if err := DecodeModel(target, data); err != nil {
			if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("untyped rejection: %v", err)
			}
			if !bytes.Equal(EncodeModel(target), before) {
				t.Fatal("a rejected section changed the model")
			}
			return
		}
		if !bytes.Equal(EncodeModel(target), data) {
			t.Fatal("accepted section does not re-encode to its input")
		}
	})
}
