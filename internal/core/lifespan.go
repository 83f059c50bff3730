package core

import (
	"userv6/internal/netaddr"
	"userv6/internal/simtime"
	"userv6/internal/stats"
	"userv6/internal/telemetry"
)

// Lifespans measures how long (user, address) and (user, prefix) pairs
// live: the engine behind Figures 5 and 6. Feed it every observation of
// a lookback window ending at the reference day; it tracks, for each
// pair at each configured prefix length, the first day the pair was seen
// and whether it was seen on the reference day.
type Lifespans struct {
	// Ref is the reference day (the paper uses Apr 19).
	Ref simtime.Day
	// lengths are the prefix lengths tracked per family; /32 covers
	// IPv4 addresses, /128 IPv6 addresses.
	lengths []int
	pairs   map[pairKey]*pairLife
	// abusiveOnly/benignOnly restrict the population.
	abusiveOnly, benignOnly bool
}

type pairLife struct {
	first simtime.Day
	onRef bool
}

// NewLifespans returns an analyzer for the given reference day and
// prefix lengths. Lengths longer than a family's width are skipped per
// observation, so one list can mix IPv4 and IPv6 lengths.
func NewLifespans(ref simtime.Day, lengths ...int) *Lifespans {
	return &Lifespans{Ref: ref, lengths: append([]int(nil), lengths...), pairs: make(map[pairKey]*pairLife)}
}

// Restrict limits accounting to abusive accounts (true) or benign users
// (false). It returns the analyzer for chaining.
func (l *Lifespans) Restrict(abusive bool) *Lifespans {
	l.abusiveOnly = abusive
	l.benignOnly = !abusive
	return l
}

// Observe feeds one observation; days after Ref are ignored.
func (l *Lifespans) Observe(o telemetry.Observation) {
	if o.Day > l.Ref || !o.Addr.IsValid() {
		return
	}
	if (l.abusiveOnly && !o.Abusive) || (l.benignOnly && o.Abusive) {
		return
	}
	max := o.Addr.Bits()
	for _, length := range l.lengths {
		if length > max {
			continue
		}
		key := pairKey{uid: o.UserID, pfx: netaddr.PrefixFrom(o.Addr, length)}
		p := l.pairs[key]
		if p == nil {
			p = &pairLife{first: o.Day}
			l.pairs[key] = p
		} else if o.Day < p.first {
			p.first = o.Day
		}
		if o.Day == l.Ref {
			p.onRef = true
		}
	}
}

// Merge folds another analyzer's pair state into l: first-seen days take
// the minimum and reference-day sightings are ORed, so the result is
// exact for any split of the observation stream. Both analyzers must use
// the same Ref, lengths, and restriction. The smaller state is folded
// into the larger (the two swap maps first when other holds more
// pairs), so other must not be used after Merge.
func (l *Lifespans) Merge(other *Lifespans) {
	if len(other.pairs) > len(l.pairs) {
		l.pairs, other.pairs = other.pairs, l.pairs
	}
	for key, op := range other.pairs {
		p := l.pairs[key]
		if p == nil {
			l.pairs[key] = op
			continue
		}
		if op.first < p.first {
			p.first = op.first
		}
		p.onRef = p.onRef || op.onRef
	}
}

// AgeHist returns the histogram of pair ages (days since first seen,
// 0 = first seen on the reference day) for pairs of the given family and
// prefix length observed on the reference day (Figure 5's "across all
// pairs" curves).
func (l *Lifespans) AgeHist(fam netaddr.Family, length int) *stats.IntHist {
	h := stats.NewIntHist(64)
	for key, p := range l.pairs {
		if !p.onRef || key.pfx.Family() != fam || key.pfx.Bits() != length {
			continue
		}
		h.Add(int(l.Ref - p.first))
	}
	return h
}

// MedianAgePerUser returns the histogram of per-user median pair ages
// (Figure 5's "User med" curves).
func (l *Lifespans) MedianAgePerUser(fam netaddr.Family, length int) *stats.IntHist {
	perUser := make(map[uint64][]int)
	for key, p := range l.pairs {
		if !p.onRef || key.pfx.Family() != fam || key.pfx.Bits() != length {
			continue
		}
		perUser[key.uid] = append(perUser[key.uid], int(l.Ref-p.first))
	}
	h := stats.NewIntHist(64)
	for _, ages := range perUser {
		h.Add(medianInt(ages))
	}
	return h
}

// medianInt returns the lower median of xs (xs must be non-empty; it is
// modified by partial sorting).
func medianInt(xs []int) int {
	// Insertion sort: per-user age lists are tiny.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs[(len(xs)-1)/2]
}

// FreshShare is one prefix length's share of reference-day pairs first
// seen within the last 1, 2, and 3 days (Figure 6).
type FreshShare struct {
	Length                    int
	Within1, Within2, Within3 float64
	Pairs                     int
}

// FreshShares computes Figure 6's curves for the given family across
// all configured lengths valid for it.
func (l *Lifespans) FreshShares(fam netaddr.Family) []FreshShare {
	counts := make(map[int][4]int) // [pairs, <=1d, <=2d, <=3d]
	for key, p := range l.pairs {
		if !p.onRef || key.pfx.Family() != fam {
			continue
		}
		c := counts[key.pfx.Bits()]
		c[0]++
		age := int(l.Ref - p.first)
		if age < 1 {
			c[1]++
		}
		if age < 2 {
			c[2]++
		}
		if age < 3 {
			c[3]++
		}
		counts[key.pfx.Bits()] = c
	}
	out := make([]FreshShare, 0, len(counts))
	for _, length := range l.lengths {
		c, ok := counts[length]
		if !ok || c[0] == 0 {
			continue
		}
		fs := FreshShare{
			Length:  length,
			Pairs:   c[0],
			Within1: float64(c[1]) / float64(c[0]),
			Within2: float64(c[2]) / float64(c[0]),
			Within3: float64(c[3]) / float64(c[0]),
		}
		out = append(out, fs)
	}
	return out
}

// Pairs returns the number of tracked (user, prefix) pairs.
func (l *Lifespans) Pairs() int { return len(l.pairs) }
