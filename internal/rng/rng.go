// Package rng provides the deterministic pseudo-random substrate used by
// every stochastic component in the repository.
//
// All experiment code takes explicit seeds so that every figure and table
// regenerates bit-for-bit. The generator is xoshiro256** seeded through
// SplitMix64, which gives high-quality 64-bit streams and cheap, collision-
// resistant splitting: Split derives an independent child stream, so
// parallel workers and per-dimension regeneration draws never share state.
package rng

import "math"

// Rand is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New or Split.
type Rand struct {
	s0, s1, s2, s3 uint64
	// cached second Gaussian from the polar method
	gauss   float64
	hasG    bool
	splitCt uint64
	seed    uint64
}

// splitmix64 advances x and returns the next SplitMix64 output. It is used
// only to expand seeds into full generator state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Distinct seeds give independent
// streams; the same seed always gives the same stream.
func New(seed uint64) *Rand {
	r := &Rand{seed: seed}
	s := seed
	r.s0 = splitmix64(&s)
	r.s1 = splitmix64(&s)
	r.s2 = splitmix64(&s)
	r.s3 = splitmix64(&s)
	// xoshiro must not start at the all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
	return r
}

// Split returns a new generator whose stream is statistically independent
// of the parent's. Each call yields a different child. The parent stream
// is not advanced, so Split does not perturb sequences already planned on
// the parent — this keeps regeneration draws reproducible regardless of
// how many workers were split off beforehand.
func (r *Rand) Split() *Rand {
	r.splitCt++
	return New(r.seed ^ (0x9e3779b97f4a7c15 * r.splitCt) ^ rotl(r.s2, 17))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *Rand) Uint64() uint64 {
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

// Uint32 returns 32 random bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul128(v, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul128(v, un)
		}
	}
	return int(hi)
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float32 returns a uniform float32 in [0, 1).
func (r *Rand) Float32() float32 {
	return float32(r.Uint64()>>40) * (1.0 / (1 << 24))
}

// Norm returns a standard normal variate using the Marsaglia polar method,
// caching the second value of each pair.
func (r *Rand) Norm() float64 {
	if r.hasG {
		r.hasG = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.hasG = true
		return u * f
	}
}

// NormFloat32 returns a standard normal variate as float32.
func (r *Rand) NormFloat32() float32 { return float32(r.Norm()) }

// Exp returns an exponential variate with rate lambda (mean 1/lambda).
// It panics if lambda <= 0.
func (r *Rand) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: Exp with non-positive lambda")
	}
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u) / lambda
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles p in place (Fisher–Yates).
func (r *Rand) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool { return r.Float64() < p }

// Categorical samples an index proportionally to the non-negative weights.
// It panics if weights is empty or sums to zero.
func (r *Rand) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: Categorical with negative weight")
		}
		total += w
	}
	if len(weights) == 0 || total == 0 {
		panic("rng: Categorical with empty or zero-sum weights")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// State is the complete serializable state of a Rand, used by model
// persistence so a reloaded model's future random draws (e.g. encoder
// regeneration) continue the exact stream.
type State struct {
	S0, S1, S2, S3 uint64
	SplitCt, Seed  uint64
	Gauss          float64
	HasG           bool
}

// State captures the generator's full state.
func (r *Rand) State() State {
	return State{
		S0: r.s0, S1: r.s1, S2: r.s2, S3: r.s3,
		SplitCt: r.splitCt, Seed: r.seed,
		Gauss: r.gauss, HasG: r.hasG,
	}
}

// FromState reconstructs a generator that continues exactly where the
// captured one stopped.
func FromState(s State) *Rand {
	return &Rand{
		s0: s.S0, s1: s.S1, s2: s.S2, s3: s.S3,
		splitCt: s.SplitCt, seed: s.Seed,
		gauss: s.Gauss, hasG: s.HasG,
	}
}

// FillNorm fills dst with independent N(mean, sd) float32 variates.
func (r *Rand) FillNorm(dst []float32, mean, sd float64) {
	for i := range dst {
		dst[i] = float32(mean + sd*r.Norm())
	}
}

// FillUniform fills dst with independent uniform float32 variates in [lo, hi).
func (r *Rand) FillUniform(dst []float32, lo, hi float64) {
	span := hi - lo
	for i := range dst {
		dst[i] = float32(lo + span*r.Float64())
	}
}
