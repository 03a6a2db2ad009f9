// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by every randomized component in this repository.
//
// The generator is xoshiro256** seeded through SplitMix64. Unlike
// math/rand, its output is stable across Go releases, which makes every
// experiment table (cmd/bcbench) exactly reproducible from its seed. Streams
// can be split by label (see Split) so that independent components draw
// from statistically independent sequences regardless of the order in
// which they are invoked.
//
// RNG is not safe for concurrent use; give each goroutine its own stream
// via Split or New.
package rng

// RNG is a deterministic pseudo-random number generator
// (xoshiro256** 1.0, Blackman & Vigna). The zero value is not usable;
// construct instances with New or Split.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances the given state and returns the next SplitMix64
// output. It is used both to seed xoshiro and to hash stream labels.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded with seed. Any seed, including zero, is
// valid: seeding goes through SplitMix64, which maps every input to a
// well-distributed nonzero xoshiro state.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator to the state produced by seed.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	r.s0 = splitMix64(&sm)
	r.s1 = splitMix64(&sm)
	r.s2 = splitMix64(&sm)
	r.s3 = splitMix64(&sm)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split returns a new generator whose stream is a deterministic function
// of the parent's current state and the label, and advances the parent by
// one draw. Two Splits with different labels, or from different parent
// states, yield independent streams. Use it to hand sub-components their
// own reproducible randomness.
func (r *RNG) Split(label string) *RNG {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return New(r.Uint64() ^ h)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Bias is removed by rejection sampling (Lemire-style threshold check is
// unnecessary at these call rates; a simple modulo-rejection loop keeps
// the code obviously correct).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint64(n)
	// Largest multiple of n that fits in 64 bits; values at or above it
	// would bias the modulo and are rejected.
	limit := (^uint64(0)) - (^uint64(0))%un
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % un)
		}
	}
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	limit := (^uint64(0)) - (^uint64(0))%n
	for {
		v := r.Uint64()
		if v < limit {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ShuffleInts permutes s uniformly in place (Fisher–Yates).
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Range returns a uniform float64 in [lo, hi). It panics if hi < lo.
func (r *RNG) Range(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Range with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}

// SampleWithoutReplacement returns k distinct uniform values from [0, n)
// in selection order. It panics if k > n or k < 0.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: SampleWithoutReplacement with k out of range")
	}
	if k == 0 {
		return nil
	}
	// Partial Fisher–Yates over a dense index array. O(n) memory but
	// exact and simple; n here is a vertex count, always affordable.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := make([]int, k)
	copy(out, idx[:k])
	return out
}
