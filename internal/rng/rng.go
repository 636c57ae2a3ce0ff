// Package rng provides deterministic, splittable pseudo-random number
// streams for the simulator.
//
// Every stochastic component of a simulation (mobility, traffic, MAC
// backoff, protocol jitter) draws from its own named stream derived from a
// single scenario seed. Splitting by name keeps components decoupled: adding
// a random draw to one component does not perturb the sequences seen by the
// others, so regression baselines stay stable.
package rng

import (
	"hash/fnv"
	"math"
)

// Source is a deterministic PRNG stream. It implements a 64-bit
// SplitMix64-seeded xoshiro256** generator, which is small, fast, and has
// well-understood statistical quality for simulation workloads.
//
// Source is not safe for concurrent use; the simulator is single-threaded
// by design.
type Source struct {
	s    [4]uint64
	seed int64 // the seed this stream was created from, for Split

	// draws counts Uint64 calls across the whole split tree: every child
	// shares its root's counter, so Draws on the root totals the tree. A
	// cheap determinism fingerprint — two runs of the same scenario must
	// consume exactly the same number of random words.
	draws *uint64
}

// New returns a Source seeded from seed.
func New(seed int64) *Source {
	var src Source
	src.draws = new(uint64)
	src.Reseed(seed)
	return &src
}

// Reseed resets the stream to the state derived from seed.
func (r *Source) Reseed(seed int64) {
	r.seed = seed
	// SplitMix64 expansion of the seed into four non-zero words.
	x := uint64(seed)
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1 // xoshiro must not start from the all-zero state
	}
}

// Split derives an independent stream keyed by name. The derivation uses
// the parent's original seed, not its current state, so derived streams
// are stable regardless of the order of creation or of draws from the
// parent.
func (r *Source) Split(name string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	child := New(int64(h.Sum64()) ^ r.seed)
	child.draws = r.draws // one counter for the whole tree
	return child
}

// State returns the generator's four state words; SetState puts them
// back. Together they rewind a stream to an earlier point of its own
// sequence (the bounded model checker's snapshots). The shared draw
// counter is a diagnostic and is not rewound.
func (r *Source) State() [4]uint64 { return r.s }

// SetState overwrites the generator's state words with ones State
// returned.
func (r *Source) SetState(s [4]uint64) { r.s = s }

// Draws returns the number of random words drawn so far across this
// stream and every stream split from it (transitively).
func (r *Source) Draws() uint64 { return *r.draws }

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *Source) Uint64() uint64 {
	*r.draws++
	rotl := func(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }
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

// Int63 returns a non-negative random 63-bit integer.
func (r *Source) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation would be faster, but
	// modulo over 64 bits has negligible bias for the n used here.
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform float64 in [lo, hi).
func (r *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1,
// via inversion sampling.
func (r *Source) ExpFloat64() float64 {
	// 1-Float64() is in (0, 1], avoiding log(0).
	return -math.Log(1 - r.Float64())
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
