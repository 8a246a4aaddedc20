package graph

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// refUint64 is xoshiro256**'s step written out the way the reference
// implementation states it, against which Uint64 and step are checked.
func refUint64(s *[4]uint64) uint64 {
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

func TestRNGUint64MatchesReference(t *testing.T) {
	r := NewRNG(17)
	ref := r.State()
	for i := 0; i < 10000; i++ {
		if got, want := r.Uint64(), refUint64(&ref); got != want {
			t.Fatalf("draw %d: Uint64 = %x, reference %x", i, got, want)
		}
	}
	s := r.State()
	out, s0, s1, s2, s3 := step(s[0], s[1], s[2], s[3])
	if want := refUint64(&ref); out != want || [4]uint64{s0, s1, s2, s3} != ref {
		t.Fatal("step differs from the reference")
	}
}

// TestRNGSkipMatchesUint64: Skip(k) leaves the state k calls to Uint64
// leave, k = 0 included.
func TestRNGSkipMatchesUint64(t *testing.T) {
	f := func(seed uint64, k uint16) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		a.Skip(int(k))
		for i := 0; i < int(k); i++ {
			b.Uint64()
		}
		return a.State() == b.State() && a.Uint64() == b.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	a, b := NewRNG(3), NewRNG(3)
	a.Skip(0)
	if a.State() != b.State() {
		t.Error("Skip(0) moved the generator")
	}
}

// TestRNGSkipNormMatchesNormFloat32: SkipNormFloat32(k) leaves the
// state k calls to NormFloat32 leave, over a pass long enough to cross
// many rejected attempts of the polar method, and for k = 0.
func TestRNGSkipNormMatchesNormFloat32(t *testing.T) {
	for _, k := range []int{0, 1, 2, 7, 4000} {
		a, b := NewRNG(uint64(k)+11), NewRNG(uint64(k)+11)
		a.SkipNormFloat32(k)
		for i := 0; i < k; i++ {
			b.NormFloat32()
		}
		if a.State() != b.State() {
			t.Fatalf("k = %d: SkipNormFloat32 state differs from NormFloat32's", k)
		}
	}
	// The 4000-variate pass above crosses hundreds of rejections: count
	// them on the same stream.
	r := NewRNG(4011)
	rejected := 0
	for i := 0; i < 4000; i++ {
		for {
			if _, _, ok := polar(r.Uint64(), r.Uint64()); ok {
				break
			}
			rejected++
		}
	}
	if rejected < 100 {
		t.Fatalf("only %d rejected attempts in 4000 variates", rejected)
	}
}

// TestRNGStateRoundTrip: a generator set to a recorded state, here one
// Skip reached, draws what the recording one drew from there; the
// all-zero state is refused.
func TestRNGStateRoundTrip(t *testing.T) {
	r := NewRNG(8)
	r.Skip(123)
	s := r.State()
	want := []float32{r.NormFloat32(), r.NormFloat32(), float32(r.Float64())}
	var c RNG
	if !c.SetState(s) {
		t.Fatal("SetState refused a state NewRNG reached")
	}
	got := []float32{c.NormFloat32(), c.NormFloat32(), float32(c.Float64())}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d after SetState = %v, want %v", i, got[i], want[i])
		}
	}
	if c.State() != r.State() {
		t.Fatal("states differ after the same draws")
	}
	if c.SetState([4]uint64{}) || c.State() != r.State() {
		t.Fatal("SetState accepted the all-zero state")
	}
}
