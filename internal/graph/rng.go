package graph

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random number generator
// (SplitMix64 seeded xoshiro256**). Every randomized component in this
// repository (graph generation, sampling, weight init) takes an explicit
// *RNG so that runs are reproducible across machines and goroutine
// schedules.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed repositions the generator at the start of NewRNG(seed)'s
// stream, without allocating.
func (r *RNG) Reseed(seed uint64) {
	// SplitMix64 to expand the seed into the xoshiro state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Uint64 returns the next 64 random bits. It is written to stay within
// the inliner's budget, and so are Float64 and Float32 over it.
func (r *RNG) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// step is Uint64's step over state words held in locals, so a skip
// loop keeps the state in registers: the output and the next state.
func step(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	s2 ^= s0
	s3 ^= s1
	return bits.RotateLeft64(s1*5, 7) * 9, s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)
}

// Skip advances the generator to the state k calls to Uint64 would
// leave, without producing their output: a parallel generator records
// where each chunk of its stream starts and hands the chunks to
// workers.
func (r *RNG) Skip(k int) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for ; k > 0; k-- {
		_, s0, s1, s2, s3 = step(s0, s1, s2, s3)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("graph: RNG.Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method.
	v := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, v)
	if lo < v {
		thresh := -v % v
		for lo < thresh {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, v)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return unitFloat64(r.Uint64())
}

// unitFloat64 maps 64 random bits to a uniform float64 in [0, 1).
func unitFloat64(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// NormFloat32 returns a standard normal variate using the polar method.
func (r *RNG) NormFloat32() float32 {
	for {
		u, s, ok := polar(r.Uint64(), r.Uint64())
		if ok {
			return float32(u * math.Sqrt(-2*math.Log(s)/s))
		}
	}
}

// polar is one attempt of the polar method on two uniform draws: the
// point (u, v) in the square, s = u² + v², and whether it falls inside
// the unit disc. NormFloat32 and SkipNormFloat32 share it, so the
// skip accepts exactly the attempts the draw accepts.
func polar(x, y uint64) (u, s float64, ok bool) {
	u = 2*unitFloat64(x) - 1
	v := 2*unitFloat64(y) - 1
	s = u*u + v*v
	return u, s, s > 0 && s < 1
}

// SkipNormFloat32 advances the generator to the state k calls to
// NormFloat32 would leave. It repeats each call's rejection test and
// skips the logarithm and square root of the accepted attempt.
func (r *RNG) SkipNormFloat32(k int) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var x, y uint64
	for ; k > 0; k-- {
		for {
			x, s0, s1, s2, s3 = step(s0, s1, s2, s3)
			y, s0, s1, s2, s3 = step(s0, s1, s2, s3)
			if _, _, ok := polar(x, y); ok {
				break
			}
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// State returns the generator's xoshiro256** state words — its exact
// position in the random stream. Together with SetState it lets a
// checkpoint capture and restore the stream so a resumed run draws the
// identical continuation (see internal/checkpoint).
func (r *RNG) State() [4]uint64 { return r.s }

// SetState repositions the generator at a state captured by State. The
// all-zero state is xoshiro's degenerate fixed point (the stream would
// be constant zero); NewRNG can never produce it, so SetState rejects
// it by leaving the generator untouched and returning false.
func (r *RNG) SetState(s [4]uint64) bool {
	if s == ([4]uint64{}) {
		return false
	}
	r.s = s
	return true
}

// Split derives an independent generator; convenient for handing one
// stream per worker without sharing mutable state.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa5a5a5a55a5a5a5a)
}

// Shuffle permutes the first n elements addressed by swap uniformly.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
