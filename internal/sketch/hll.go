// Package sketch provides streaming summary structures used to scale the
// IP-centric analyses beyond exact in-memory maps: HyperLogLog for
// distinct-user counts per prefix, Count-Min for frequency estimation,
// and Space-Saving for heavy-hitter (most-populated address) detection.
//
// At the paper's vantage point — a trillion requests a day — exact
// per-address user sets are infeasible; production pipelines use exactly
// these summaries. The analyzers in internal/core accept either exact or
// sketched counting backends, and the test suite cross-validates the
// sketches against exact counts on simulated traffic.
package sketch

import (
	"fmt"
	"math"
	"math/bits"
)

// hash64 is the shared 64-bit mixer (SplitMix64 finalizer). All sketches
// hash through it so callers can feed raw entity IDs.
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HLL is a HyperLogLog distinct counter with 2^p registers.
// The zero HLL is not usable; call NewHLL.
type HLL struct {
	p    uint8
	regs []uint8
}

// NewHLL returns a HyperLogLog with precision p in [4, 16]. The standard
// error is roughly 1.04 / sqrt(2^p); p = 12 (4096 registers, ~1.6% error)
// suits per-prefix user counting.
func NewHLL(p uint8) (*HLL, error) {
	if p < 4 || p > 16 {
		return nil, fmt.Errorf("sketch: HLL precision %d out of [4, 16]", p)
	}
	return &HLL{p: p, regs: make([]uint8, 1<<p)}, nil
}

// MustNewHLL is NewHLL that panics on error.
func MustNewHLL(p uint8) *HLL {
	h, err := NewHLL(p)
	if err != nil {
		panic(err)
	}
	return h
}

// Add inserts an item identified by a 64-bit key.
func (h *HLL) Add(key uint64) {
	x := hash64(key)
	idx := x >> (64 - h.p)
	rest := x<<h.p | 1<<(h.p-1) // ensure termination without branch
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > h.regs[idx] {
		h.regs[idx] = rank
	}
}

// Estimate returns the approximate number of distinct items added.
func (h *HLL) Estimate() float64 {
	m := float64(len(h.regs))
	var (
		sum   float64
		zeros int
	)
	for _, r := range h.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	e := alpha * m * m / sum
	// Linear counting correction for small cardinalities.
	if e <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return e
}
