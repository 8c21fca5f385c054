// Package rng provides a small, deterministic pseudo-random number
// generator and the sampling distributions used throughout the repository.
//
// Every stochastic component in this project — workload synthesis, design
// space sampling, k-means seeding — draws from this package rather than
// math/rand so that results are bit-reproducible across Go releases and
// across machines. The generator is xoshiro256**, seeded via SplitMix64,
// which is the combination recommended by the algorithm's authors.
package rng

import "math"

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct one with New or NewFromString.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given 64-bit seed. Distinct seeds
// produce statistically independent streams.
func New(seed uint64) *Source {
	// SplitMix64 expansion of the seed into the 256-bit state, per
	// Blackman & Vigna's reference implementation.
	var src Source
	x := seed
	for i := range src.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	return &src
}

// NewFromString returns a Source seeded from an arbitrary string, typically
// a benchmark or experiment name. The seed is an FNV-1a hash of the string,
// so the same name always yields the same stream.
func NewFromString(name string) *Source {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	if h == 0 {
		h = offset64
	}
	return New(h)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value in the stream.
func (r *Source) Uint64() uint64 {
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

// Float64 returns a uniform value in [0, 1).
func (r *Source) Float64() float64 {
	// Use the top 53 bits for a uniform double, the standard construction.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be faster, but a
	// plain modulo of a 64-bit value has negligible bias for the small n
	// used here and keeps the stream layout simple.
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method. It consumes a variable number of stream values.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns a lognormal variate with the given location mu and
// scale sigma of the underlying normal.
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Geometric returns a geometric variate counting the number of failures
// before the first success with success probability p in (0, 1]. The mean
// is (1-p)/p.
func (r *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric probability out of (0, 1]")
	}
	if p == 1 {
		return 0
	}
	// Inversion: floor(log(U) / log(1-p)).
	u := r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return int(math.Log(u) / math.Log(1-p))
}

// Exponential returns an exponential variate with the given mean.
func (r *Source) Exponential(mean float64) float64 {
	u := r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(u)
}
