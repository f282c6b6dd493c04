// Package rng provides the deterministic pseudo-random number generation
// used throughout the simulator.
//
// Every source of randomness in gonoc — traffic injection, destination
// selection, fault-arrival times, Monte-Carlo campaigns — draws from a
// seeded Stream so that any experiment is exactly reproducible from its
// seed. Streams can be split into statistically independent child streams,
// which is what lets the sweep package run many simulations in parallel
// while each remains deterministic.
//
// The generator is xoshiro256** seeded through SplitMix64, the combination
// recommended by Blackman and Vigna. It is not cryptographically secure and
// must never be used for security purposes; it is chosen for speed,
// equidistribution and a cheap jump/split operation.
package rng

import "math"

// Stream is a deterministic random number stream. The zero value is not
// valid; construct streams with New or Stream.Split.
type Stream struct {
	s [4]uint64
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding so that correlated seeds (0, 1, 2, ...) still
// produce decorrelated xoshiro states.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Stream seeded from seed. Distinct seeds yield
// decorrelated streams.
func New(seed uint64) *Stream {
	st := seed
	var r Stream
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro must not start from the all-zero state; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway for clarity.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return &r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Stream) Uint64() uint64 {
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

// Split returns a child stream that is statistically independent of the
// parent. The parent's state advances, so successive Splits yield distinct
// children. Splitting is how per-node and per-worker streams are derived
// from one experiment seed.
func (r *Stream) Split() *Stream {
	// Seed the child from two parent draws mixed through SplitMix64 so the
	// child sequence shares no lattice structure with the parent.
	seed := r.Uint64() ^ rotl(r.Uint64(), 31)
	return New(seed)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's multiply-shift
// rejection method (no modulo bias).
func (r *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= -n%n { // -n%n == (2^64 - n) % n
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
// It panics if mean <= 0.
func (r *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp called with mean <= 0")
	}
	// Avoid log(0); Float64 returns [0,1) so 1-u is in (0,1].
	u := 1 - r.Float64()
	return -mean * math.Log(u)
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
