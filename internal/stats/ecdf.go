// Package stats provides the statistical primitives behind every figure:
// empirical CDFs, quantiles, integer histograms, ROC curve assembly, and
// sample-to-population extrapolation.
package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over float64
// samples, built with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from samples. The input slice is copied.
func NewECDF(samples []float64) *ECDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the number of samples.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns P(X <= x) in [0, 1]. For an empty ECDF it returns NaN.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	// Index of first element > x.
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-th quantile (q in [0, 1]) using the nearest-rank
// method. For an empty ECDF it returns NaN.
func (e *ECDF) Quantile(q float64) float64 {
	n := len(e.sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[n-1]
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return e.sorted[rank]
}

// Mean returns the sample mean, or NaN when empty.
func (e *ECDF) Mean() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range e.sorted {
		sum += v
	}
	return sum / float64(len(e.sorted))
}

// Point is a 2-D sample of a curve.
type Point struct{ X, Y float64 }

// IntHist is an exact histogram over non-negative integers: dense buckets
// for small values (the common case for "addresses per user"-style
// counts) and a sparse map for the heavy tail, so the CDF is exact at
// every value. The zero IntHist is not usable; call NewIntHist.
type IntHist struct {
	buckets  []uint64       // counts for 0..len-1
	overflow map[int]uint64 // counts for values >= len(buckets)
	total    uint64
	sum      uint64
	max      uint64
}

// NewIntHist returns a histogram with dense buckets for values < cap.
func NewIntHist(cap int) *IntHist {
	if cap < 1 {
		cap = 1
	}
	return &IntHist{buckets: make([]uint64, cap)}
}

// Add records one observation of value v (negative values count as 0).
func (h *IntHist) Add(v int) {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if v < len(h.buckets) {
		h.buckets[v]++
	} else {
		if h.overflow == nil {
			h.overflow = make(map[int]uint64)
		}
		h.overflow[v]++
	}
	h.total++
	h.sum += u
	if u > h.max {
		h.max = u
	}
}

// N returns the number of observations.
func (h *IntHist) N() uint64 { return h.total }

// Mean returns the observation mean, or NaN when empty.
func (h *IntHist) Mean() float64 {
	if h.total == 0 {
		return math.NaN()
	}
	return float64(h.sum) / float64(h.total)
}

// Max returns the largest observed value.
func (h *IntHist) Max() uint64 { return h.max }

// CDFAt returns the exact P(X <= v).
func (h *IntHist) CDFAt(v int) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	if v < 0 {
		return 0
	}
	if uint64(v) >= h.max {
		return 1
	}
	var cum uint64
	limit := v
	if limit >= len(h.buckets) {
		limit = len(h.buckets) - 1
	}
	for i := 0; i <= limit; i++ {
		cum += h.buckets[i]
	}
	for ov, c := range h.overflow {
		if ov <= v {
			cum += c
		}
	}
	return float64(cum) / float64(h.total)
}

// FracAbove returns P(X > v).
func (h *IntHist) FracAbove(v int) float64 {
	c := h.CDFAt(v)
	if math.IsNaN(c) {
		return math.NaN()
	}
	return 1 - c
}

// Median returns the smallest v with CDFAt(v) >= 0.5, searching the exact
// buckets; if the median falls into overflow it returns the bucket cap.
func (h *IntHist) Median() int { return h.QuantileInt(0.5) }

// QuantileInt returns the smallest v with P(X <= v) >= q.
func (h *IntHist) QuantileInt(q float64) int {
	if h.total == 0 {
		return 0
	}
	target := q * float64(h.total)
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if float64(cum) >= target {
			return i
		}
	}
	ovs := make([]int, 0, len(h.overflow))
	for v := range h.overflow {
		ovs = append(ovs, v)
	}
	sort.Ints(ovs)
	for _, v := range ovs {
		cum += h.overflow[v]
		if float64(cum) >= target {
			return v
		}
	}
	return int(h.max)
}

// CDFPoints returns (v, P(X <= v)) pairs for v in [0, maxV].
func (h *IntHist) CDFPoints(maxV int) []Point {
	pts := make([]Point, 0, maxV+1)
	for v := 0; v <= maxV; v++ {
		pts = append(pts, Point{X: float64(v), Y: h.CDFAt(v)})
	}
	return pts
}
