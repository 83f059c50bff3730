// Package rng provides small, fully deterministic pseudo-random number
// generators with hierarchical seed derivation.
//
// Every stochastic component of the simulator (population synthesis,
// address assignment, attacker behavior, request arrival) draws from an
// rng.Source derived from the scenario seed and a stable label. This makes
// whole-experiment runs byte-for-byte reproducible across machines and Go
// versions — something math/rand does not guarantee across releases — and
// lets independent components consume randomness without contending on a
// shared source.
package rng

import "math/bits"

// splitmix64 is the seed-expansion function from Vigna's SplitMix64.
// It is used both to derive sub-seeds and to bootstrap PCG state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Derive deterministically mixes a parent seed with a label, producing an
// independent child seed. Labels are hashed with FNV-1a before mixing so
// that human-readable component names can be used directly.
func Derive(seed uint64, label string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return splitmix64(seed ^ h)
}

// DeriveN mixes a parent seed with an integer index (for per-user,
// per-day, per-entity streams).
func DeriveN(seed uint64, n uint64) uint64 {
	return splitmix64(seed ^ bits.RotateLeft64(n, 32) ^ 0xd6e8feb86659fd93)
}

// Source is a PCG-XSH-RR 64/32-based generator (O'Neill) extended to 64-bit
// output by pairing two draws. The zero Source is valid and behaves as if
// seeded with 0.
type Source struct {
	state uint64
	inc   uint64
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed resets the generator to a state derived from seed.
func (s *Source) Seed(seed uint64) {
	s.state = splitmix64(seed)
	s.inc = splitmix64(seed+0x632be59bd9b4e019) | 1
	s.next32()
}

func (s *Source) next32() uint32 {
	old := s.state
	s.state = old*6364136223846793005 + s.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint(old >> 59)
	return bits.RotateLeft32(xorshifted, -int(rot))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Source) Uint64() uint64 {
	return uint64(s.next32())<<32 | uint64(s.next32())
}

// Uint32 returns a uniformly distributed 32-bit value.
func (s *Source) Uint32() uint32 { return s.next32() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Rejection sampling on the top bits: unbiased for all n.
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0, 1]).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// NormFloat64 returns a standard normal variate (polar Marsaglia method).
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * sqrt(-2*ln(q)/q)
		}
	}
}

// Poisson returns a Poisson variate with the given mean, using inversion
// for small means and the normal approximation above 64 (adequate for
// workload generation; the distribution tail beyond that point is not
// load-bearing for any experiment).
func (s *Source) Poisson(mean float64) int { return NewPoissonDist(mean).Draw(s) }

// PoissonDist is a Poisson distribution whose per-draw constant, the
// inversion bound exp(-mean), is computed once, for a caller that draws
// many variates of one mean.
type PoissonDist struct{ mean, bound float64 }

// NewPoissonDist returns the Poisson distribution with the given mean.
func NewPoissonDist(mean float64) PoissonDist {
	d := PoissonDist{mean: mean}
	if mean > 0 && mean <= 64 {
		d.bound = exp(-mean)
	}
	return d
}

// Draw returns a variate of d drawn from s: the value s.Poisson(mean)
// returns, from the same draws.
func (d PoissonDist) Draw(s *Source) int {
	if d.mean <= 0 {
		return 0
	}
	if d.mean > 64 {
		v := int(d.mean + sqrt(d.mean)*s.NormFloat64() + 0.5)
		if v < 0 {
			return 0
		}
		return v
	}
	k, p := 0, 1.0
	for {
		p *= s.Float64()
		if p <= d.bound {
			return k
		}
		k++
	}
}

// Geometric returns a geometric variate: the number of failures before the
// first success with success probability p in (0, 1]. For p >= 1 it
// returns 0.
func (s *Source) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric with non-positive p")
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return int(ln(u) / ln(1-p))
}

// LogNormal returns exp(mu + sigma*Z).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return exp(mu + sigma*s.NormFloat64())
}

// WeightedChoice returns an index in [0, len(weights)) with probability
// proportional to weights[i]. Zero and negative weights are treated as 0.
// If all weights are non-positive it returns 0.
func (s *Source) WeightedChoice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	target := s.Float64() * total
	sum := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		sum += w
		if sum >= target {
			return i
		}
	}
	return len(weights) - 1
}
