package core

import (
	"math"

	"userv6/internal/netaddr"
	"userv6/internal/stats"
	"userv6/internal/telemetry"
)

// pairKey identifies a (user, prefix-or-address) pair.
type pairKey struct {
	uid uint64
	pfx netaddr.Prefix
}

// Actioning simulates §7.1: on day n, compute each prefix's abusive-
// account ratio; action every prefix whose ratio meets a threshold; on
// day n+1, measure which abusive accounts were caught (TPR) and which
// benign users were hit (FPR).
//
// Feed day-n observations through ObserveDayN and day-n+1 observations
// through ObserveDayN1, then call Curve with the thresholds to evaluate.
// One instance evaluates one (family, prefix length) pair; Figure 11
// runs four of them (/128, /64, /56, IPv4).
type Actioning struct {
	Family netaddr.Family
	Length int

	seenN map[pairKey]struct{}
	dayN  map[netaddr.Prefix]*prefixPop
	// Day n+1: per-entity best (max) day-n ratio across the prefixes
	// the entity appears on; -1 means none of its prefixes existed on
	// day n.
	seenN1    map[pairKey]struct{}
	benignN1  map[uint64]float64
	abusiveN1 map[uint64]float64
}

// NewActioning returns a simulator for one family and prefix length.
func NewActioning(fam netaddr.Family, length int) *Actioning {
	return &Actioning{
		Family:    fam,
		Length:    length,
		seenN:     make(map[pairKey]struct{}),
		dayN:      make(map[netaddr.Prefix]*prefixPop),
		seenN1:    make(map[pairKey]struct{}),
		benignN1:  make(map[uint64]float64),
		abusiveN1: make(map[uint64]float64),
	}
}

// ObserveDayN feeds a day-n observation (building per-prefix abusive
// ratios).
func (ac *Actioning) ObserveDayN(o telemetry.Observation) {
	if o.Addr.Family() != ac.Family || ac.Length > o.Addr.Bits() {
		return
	}
	p := netaddr.PrefixFrom(o.Addr, ac.Length)
	key := pairKey{uid: o.UserID, pfx: p}
	if _, dup := ac.seenN[key]; dup {
		return
	}
	ac.seenN[key] = struct{}{}
	pop := ac.dayN[p]
	if pop == nil {
		pop = &prefixPop{}
		ac.dayN[p] = pop
	}
	if o.Abusive {
		pop.abusive++
	} else {
		pop.benign++
	}
}

// ObserveDayN1 feeds a day-n+1 observation (recording, per entity, the
// maximum day-n abusive ratio among the prefixes it appears on).
func (ac *Actioning) ObserveDayN1(o telemetry.Observation) {
	if o.Addr.Family() != ac.Family || ac.Length > o.Addr.Bits() {
		return
	}
	p := netaddr.PrefixFrom(o.Addr, ac.Length)
	key := pairKey{uid: o.UserID, pfx: p}
	if _, dup := ac.seenN1[key]; dup {
		return
	}
	ac.seenN1[key] = struct{}{}

	ratio := -1.0
	if pop := ac.dayN[p]; pop != nil && pop.abusive > 0 {
		ratio = float64(pop.abusive) / float64(pop.abusive+pop.benign)
	} else if pop != nil {
		ratio = 0
	}
	m := ac.benignN1
	if o.Abusive {
		m = ac.abusiveN1
	}
	if prev, ok := m[o.UserID]; !ok || ratio > prev {
		m[o.UserID] = ratio
	}
}

// Counts returns the confusion counts at one actioning threshold: an
// entity is actioned if any of its day-n+1 prefixes had a day-n abusive
// ratio >= threshold (with at least one abusive account).
func (ac *Actioning) Counts(threshold float64) stats.BinaryCounts {
	var c stats.BinaryCounts
	// A ratio of exactly 0 means the prefix was seen on day n with no
	// abusive accounts: never actioned. Thresholds are clamped to a
	// tiny positive floor so "threshold 0" means "any abusive presence".
	t := threshold
	if t <= 0 {
		t = math.SmallestNonzeroFloat64
	}
	for _, r := range ac.abusiveN1 {
		if r >= t {
			c.TP++
		} else {
			c.FN++
		}
	}
	for _, r := range ac.benignN1 {
		if r >= t {
			c.FP++
		} else {
			c.TN++
		}
	}
	return c
}

// Curve evaluates the thresholds and returns the ROC curve.
func (ac *Actioning) Curve(thresholds []float64) *stats.ROC {
	pts := make([]stats.ROCPoint, 0, len(thresholds))
	for _, t := range thresholds {
		counts := ac.Counts(t)
		pts = append(pts, stats.ROCPoint{Threshold: t, TPR: counts.TPR(), FPR: counts.FPR()})
	}
	return stats.NewROC(pts)
}

// DayNPrefixes returns how many prefixes were observed on day n.
func (ac *Actioning) DayNPrefixes() int { return len(ac.dayN) }

// DayN1Entities returns the day-n+1 population sizes (benign, abusive).
func (ac *Actioning) DayN1Entities() (benign, abusive int) {
	return len(ac.benignN1), len(ac.abusiveN1)
}

// DefaultThresholds returns the threshold sweep used for Figure 11:
// 0 (any abusive presence) through 1.0 (pure-abuse prefixes only).
func DefaultThresholds() []float64 {
	return []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0}
}
