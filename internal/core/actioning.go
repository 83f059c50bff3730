package core

import (
	"math"

	"userv6/internal/netaddr"
	"userv6/internal/simtime"
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
// Observe takes both days' observations in any order and ignores every
// other day; Counts and Curve evaluate thresholds afterwards. The state
// is each day's set of distinct (entity, prefix) pairs, marked abusive
// when any sighting of the pair was, and the ratios are computed when a
// query asks, so any order or split of the stream, folded with Merge,
// gives the same answers. One instance evaluates one (family, prefix
// length) pair; Figure 11 runs four of them (/128, /64, /56, IPv4).
type Actioning struct {
	Family netaddr.Family
	Length int
	// DayN is day n; day n+1 is the day after it.
	DayN simtime.Day

	dayN, dayN1 map[pairKey]bool
}

// prefixPop is one prefix's population tally.
type prefixPop struct {
	benign, abusive uint32
}

// NewActioning returns a simulator for one family and prefix length
// that takes dayN as day n.
func NewActioning(fam netaddr.Family, length int, dayN simtime.Day) *Actioning {
	return &Actioning{
		Family: fam,
		Length: length,
		DayN:   dayN,
		dayN:   make(map[pairKey]bool),
		dayN1:  make(map[pairKey]bool),
	}
}

// Observe feeds one observation: a day-n sighting counts toward its
// prefix's abusive ratio, a day-n+1 sighting is evaluated against it.
func (ac *Actioning) Observe(o telemetry.Observation) {
	var seen map[pairKey]bool
	switch o.Day {
	case ac.DayN:
		seen = ac.dayN
	case ac.DayN + 1:
		seen = ac.dayN1
	default:
		return
	}
	if o.Addr.Family() != ac.Family || ac.Length > o.Addr.Bits() {
		return
	}
	key := pairKey{uid: o.UserID, pfx: netaddr.PrefixFrom(o.Addr, ac.Length)}
	seen[key] = seen[key] || o.Abusive
}

// Merge folds another simulator's pairs into ac. Both must use the same
// family, length and day n.
func (ac *Actioning) Merge(other *Actioning) {
	for k, abusive := range other.dayN {
		ac.dayN[k] = ac.dayN[k] || abusive
	}
	for k, abusive := range other.dayN1 {
		ac.dayN1[k] = ac.dayN1[k] || abusive
	}
}

// dayNPops returns each day-n prefix's population.
func (ac *Actioning) dayNPops() map[netaddr.Prefix]prefixPop {
	pops := make(map[netaddr.Prefix]prefixPop)
	for k, abusive := range ac.dayN {
		pop := pops[k.pfx]
		if abusive {
			pop.abusive++
		} else {
			pop.benign++
		}
		pops[k.pfx] = pop
	}
	return pops
}

// ratios returns, per day-n+1 benign user and per abusive account, the
// maximum day-n abusive ratio among the prefixes it appears on: 0 for a
// prefix seen on day n with no abusive account, and -1 when none of its
// prefixes was seen on day n.
func (ac *Actioning) ratios() (benign, abusive map[uint64]float64) {
	pops := ac.dayNPops()
	benign, abusive = make(map[uint64]float64), make(map[uint64]float64)
	for k, isAbusive := range ac.dayN1 {
		ratio := -1.0
		if pop, ok := pops[k.pfx]; ok && pop.abusive > 0 {
			ratio = float64(pop.abusive) / float64(pop.abusive+pop.benign)
		} else if ok {
			ratio = 0
		}
		m := benign
		if isAbusive {
			m = abusive
		}
		if prev, ok := m[k.uid]; !ok || ratio > prev {
			m[k.uid] = ratio
		}
	}
	return benign, abusive
}

// Counts returns the confusion counts at one actioning threshold: an
// entity is actioned if any of its day-n+1 prefixes had a day-n abusive
// ratio >= threshold (with at least one abusive account).
func (ac *Actioning) Counts(threshold float64) stats.BinaryCounts {
	benign, abusive := ac.ratios()
	return counts(benign, abusive, threshold)
}

// counts tallies the entities whose ratios meet threshold.
func counts(benign, abusive map[uint64]float64, threshold float64) stats.BinaryCounts {
	var c stats.BinaryCounts
	// A ratio of exactly 0 means the prefix was seen on day n with no
	// abusive accounts: never actioned. Thresholds are clamped to a
	// tiny positive floor so "threshold 0" means "any abusive presence".
	t := threshold
	if t <= 0 {
		t = math.SmallestNonzeroFloat64
	}
	for _, r := range abusive {
		if r >= t {
			c.TP++
		} else {
			c.FN++
		}
	}
	for _, r := range benign {
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
	benign, abusive := ac.ratios()
	pts := make([]stats.ROCPoint, 0, len(thresholds))
	for _, t := range thresholds {
		c := counts(benign, abusive, t)
		pts = append(pts, stats.ROCPoint{Threshold: t, TPR: c.TPR(), FPR: c.FPR()})
	}
	return stats.NewROC(pts)
}

// DayNPrefixes returns how many prefixes were observed on day n.
func (ac *Actioning) DayNPrefixes() int { return len(ac.dayNPops()) }

// DayN1Entities returns the day-n+1 population sizes (benign, abusive).
func (ac *Actioning) DayN1Entities() (benign, abusive int) {
	b, a := ac.ratios()
	return len(b), len(a)
}

// DefaultThresholds returns the threshold sweep used for Figure 11:
// 0 (any abusive presence) through 1.0 (pure-abuse prefixes only).
func DefaultThresholds() []float64 {
	return []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0}
}
