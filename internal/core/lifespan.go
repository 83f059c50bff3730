package core

import (
	"slices"

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
	// lengths are the distinct prefix lengths tracked per family; /32
	// covers IPv4 addresses, /128 IPv6 addresses.
	lengths []int
	users   userTable[userLives]
	// pairs counts the (user, prefix) entries across all users.
	pairs int
	// abusiveOnly/benignOnly restrict the population.
	abusiveOnly, benignOnly bool
}

// userLives holds one user's pairs: per tracked length (indexed like
// Lifespans.lengths), each prefix's base address and its life.
type userLives struct {
	byLen []keyList[netaddr.Addr, pairLife]
}

type pairLife struct {
	first simtime.Day
	onRef bool
}

// NewLifespans returns an analyzer for the given reference day and
// prefix lengths. Lengths longer than a family's width are skipped per
// observation, so one list can mix IPv4 and IPv6 lengths; a repeated
// length is tracked once.
func NewLifespans(ref simtime.Day, lengths ...int) *Lifespans {
	l := &Lifespans{Ref: ref}
	for _, length := range lengths {
		if !slices.Contains(l.lengths, length) {
			l.lengths = append(l.lengths, length)
		}
	}
	return l
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
	u, added := l.users.get(o.UserID)
	if added {
		u.byLen = make([]keyList[netaddr.Addr, pairLife], len(l.lengths))
	}
	max := o.Addr.Bits()
	for i, length := range l.lengths {
		if length > max {
			continue
		}
		p, added := u.byLen[i].slot(netaddr.PrefixFrom(o.Addr, length).Addr())
		if added {
			p.first = o.Day
			l.pairs++
		} else if o.Day < p.first {
			p.first = o.Day
		}
		if o.Day == l.Ref {
			p.onRef = true
		}
	}
}

// Merge folds another analyzer's pair state into l: users only other
// saw are adopted, and for a pair both saw the first-seen days take the
// minimum and reference-day sightings are ORed, so the result is exact
// for any split of the observation stream. Both analyzers must use the
// same Ref, lengths, and restriction. The smaller state is folded into
// the larger (the two swap first when other holds more users), so other
// must not be used after Merge.
func (l *Lifespans) Merge(other *Lifespans) {
	if other.users.len() > l.users.len() {
		*l, *other = *other, *l
	}
	l.pairs += other.pairs
	l.users.merge(&other.users, func(into, from *userLives) {
		for i := range into.byLen {
			into.byLen[i].merge(&from.byLen[i], func(_ netaddr.Addr, p *pairLife, op pairLife) {
				p.first = min(p.first, op.first)
				p.onRef = p.onRef || op.onRef
				l.pairs--
			})
		}
	})
}

// onRefAges calls add with the age (days since first seen, 0 = first
// seen on the reference day) of each of one user's pairs at the i-th
// tracked length, of the family, that were seen on the reference day.
func (l *Lifespans) onRefAges(u *userLives, i int, fam netaddr.Family, add func(age int)) {
	pairs := &u.byLen[i]
	for j, a := range pairs.keys {
		if p := pairs.vals[j]; p.onRef && a.Family() == fam {
			add(int(l.Ref - p.first))
		}
	}
}

// AgeHist returns the histogram of pair ages (days since first seen,
// 0 = first seen on the reference day) for pairs of the given family and
// prefix length observed on the reference day (Figure 5's "across all
// pairs" curves).
func (l *Lifespans) AgeHist(fam netaddr.Family, length int) *stats.IntHist {
	h := stats.NewIntHist(64)
	if i := slices.Index(l.lengths, length); i >= 0 {
		for _, u := range l.users.m {
			l.onRefAges(u, i, fam, h.Add)
		}
	}
	return h
}

// MedianAgePerUser returns the histogram of per-user median pair ages
// (Figure 5's "User med" curves).
func (l *Lifespans) MedianAgePerUser(fam netaddr.Family, length int) *stats.IntHist {
	h := stats.NewIntHist(64)
	i := slices.Index(l.lengths, length)
	if i < 0 {
		return h
	}
	var ages []int
	add := func(age int) { ages = append(ages, age) }
	for _, u := range l.users.m {
		ages = ages[:0]
		l.onRefAges(u, i, fam, add)
		if len(ages) > 0 {
			h.Add(medianInt(ages))
		}
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
	counts := make([][4]int, len(l.lengths)) // [pairs, <=1d, <=2d, <=3d]
	var c *[4]int
	tally := func(age int) {
		c[0]++
		if age < 1 {
			c[1]++
		}
		if age < 2 {
			c[2]++
		}
		if age < 3 {
			c[3]++
		}
	}
	for _, u := range l.users.m {
		for i := range l.lengths {
			c = &counts[i]
			l.onRefAges(u, i, fam, tally)
		}
	}
	out := make([]FreshShare, 0, len(counts))
	for i, length := range l.lengths {
		c := counts[i]
		if c[0] == 0 {
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
func (l *Lifespans) Pairs() int { return l.pairs }
