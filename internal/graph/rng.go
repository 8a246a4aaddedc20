package graph

import "math"

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

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("graph: RNG.Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method.
	v := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, v)
	if lo < v {
		thresh := -v % v
		for lo < thresh {
			x = r.Uint64()
			hi, lo = mul64(x, v)
		}
	}
	return int(hi)
}

func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// NormFloat32 returns a standard normal variate using the polar method.
func (r *RNG) NormFloat32() float32 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return float32(u * math.Sqrt(-2*math.Log(s)/s))
		}
	}
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
