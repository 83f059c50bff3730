package stats

import (
	"fmt"
	"math"
	"sort"
)

// ROCPoint is one operating point of a detector: the actioning threshold
// that produced it and the resulting true/false positive rates.
type ROCPoint struct {
	Threshold float64
	TPR, FPR  float64
}

// ROC is a receiver operating characteristic curve: operating points
// ordered by ascending FPR.
type ROC struct {
	Points []ROCPoint
}

// NewROC sorts points by ascending FPR (ties by ascending TPR) and
// returns the curve.
func NewROC(points []ROCPoint) *ROC {
	ps := append([]ROCPoint(nil), points...)
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].FPR != ps[j].FPR {
			return ps[i].FPR < ps[j].FPR
		}
		return ps[i].TPR < ps[j].TPR
	})
	return &ROC{Points: ps}
}

// AUC returns the area under the curve by trapezoidal integration,
// anchored at (0,0) and (1,1).
func (r *ROC) AUC() float64 {
	if len(r.Points) == 0 {
		return math.NaN()
	}
	area := 0.0
	prev := ROCPoint{FPR: 0, TPR: 0}
	for _, p := range r.Points {
		area += (p.FPR - prev.FPR) * (p.TPR + prev.TPR) / 2
		prev = p
	}
	area += (1 - prev.FPR) * (1 + prev.TPR) / 2
	return area
}

// TPRAtFPR returns the highest TPR achievable at a false positive rate
// not exceeding maxFPR, and whether any operating point qualifies.
func (r *ROC) TPRAtFPR(maxFPR float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range r.Points {
		if p.FPR <= maxFPR && p.TPR >= best {
			best, ok = p.TPR, true
		}
	}
	return best, ok
}

// At returns the operating point for the given threshold, or false.
func (r *ROC) At(threshold float64) (ROCPoint, bool) {
	for _, p := range r.Points {
		if p.Threshold == threshold {
			return p, true
		}
	}
	return ROCPoint{}, false
}

// DominatesBelow reports whether r's achievable TPR is at least as high
// as other's at every probe FPR in probes, with strict improvement at one
// or more. This is the comparison behind the paper's "for FPR values
// below 1%, IPv4's ROC curve is consistently below those of IPv6".
func (r *ROC) DominatesBelow(other *ROC, probes []float64) bool {
	strict := false
	for _, f := range probes {
		mine, ok1 := r.TPRAtFPR(f)
		theirs, ok2 := other.TPRAtFPR(f)
		if !ok1 && !ok2 {
			continue
		}
		if !ok1 {
			return false
		}
		if ok2 && mine < theirs {
			return false
		}
		if !ok2 || mine > theirs {
			strict = true
		}
	}
	return strict
}

// String summarizes the curve.
func (r *ROC) String() string {
	return fmt.Sprintf("stats.ROC{points=%d, auc=%.3f}", len(r.Points), r.AUC())
}

// BinaryCounts accumulates confusion-matrix tallies for one threshold.
type BinaryCounts struct {
	TP, FP, TN, FN uint64
}

// TPR returns TP / (TP + FN), or NaN with no positives.
func (c BinaryCounts) TPR() float64 {
	if c.TP+c.FN == 0 {
		return math.NaN()
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// FPR returns FP / (FP + TN), or NaN with no negatives.
func (c BinaryCounts) FPR() float64 {
	if c.FP+c.TN == 0 {
		return math.NaN()
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// Extrapolate scales a count observed under a sampling rate to the full
// population: count/rate. It panics on non-positive rates, which always
// indicate a configuration bug.
func Extrapolate(count uint64, rate float64) float64 {
	if rate <= 0 {
		panic("stats: Extrapolate with non-positive sampling rate")
	}
	return float64(count) / rate
}

// WilsonInterval returns the 95% Wilson score interval for a proportion
// of k successes in n trials — the uncertainty the experiment reports
// carry at simulation scale. For n == 0 it returns (0, 1).
func WilsonInterval(k, n uint64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.959963984540054 // 97.5th normal percentile
	nf := float64(n)
	p := float64(k) / nf
	z2 := z * z
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
