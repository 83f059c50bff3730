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
	// cols are the tracked (prefix length, family) pairs: each distinct
	// length once per family it fits, in the order given; /32 covers
	// IPv4 addresses, /128 IPv6 addresses. A pool holds one family, so
	// 0.0.0.0/L and ::/L, which share their words, stay distinct.
	cols []lifeCol
	// users holds a row of key lists per user, one per column (indexed
	// like cols), each in the pool of the same index: the user's
	// prefixes at that length and family, and their lives. A table
	// without columns still has one (unused) list per user and one
	// pool, so rows and pools line up.
	users userTable[keyList]
	pools []keyPool[addrKey, pairLife]
	// abusiveOnly/benignOnly restrict the population.
	abusiveOnly, benignOnly bool
}

type lifeCol struct {
	length int
	fam    netaddr.Family
}

type pairLife struct {
	first int32
	onRef bool
}

// NewLifespans returns an analyzer for the given reference day and
// prefix lengths. A length is tracked for each family whose width it
// fits, so one list can mix IPv4 and IPv6 lengths; a repeated length
// is tracked once.
func NewLifespans(ref simtime.Day, lengths ...int) *Lifespans {
	l := &Lifespans{Ref: ref}
	for _, length := range lengths {
		// Each family as its zero address, which knows its width.
		for _, zero := range [...]netaddr.Addr{netaddr.AddrFrom4(0), netaddr.AddrFrom6(0, 0)} {
			c := lifeCol{length, zero.Family()}
			if length <= zero.Bits() && !slices.Contains(l.cols, c) {
				l.cols = append(l.cols, c)
			}
		}
	}
	l.users.width = len(l.cols)
	l.pools = make([]keyPool[addrKey, pairLife], l.users.w())
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
	row, _ := l.users.row(o.UserID)
	day := int32(o.Day)
	for i, c := range l.cols {
		if c.fam != o.Addr.Family() {
			continue
		}
		p, added := l.pools[i].slot(&row[i], keyOf(netaddr.PrefixFrom(o.Addr, c.length).Addr()))
		if added || day < p.first {
			p.first = day
		}
		if o.Day == l.Ref {
			p.onRef = true
		}
	}
}

// Merge folds another analyzer's pair state into l: l adopts other's
// pool chunks whole, users only other saw are adopted, and for a pair
// both saw the first-seen days take the minimum and reference-day
// sightings are ORed, so the result is exact for any split of the
// observation stream. Both analyzers must use the
// same Ref, lengths, and restriction. The smaller state is folded into
// the larger (the two swap first when other holds more users), so other
// must not be used after Merge.
func (l *Lifespans) Merge(other *Lifespans) {
	if other.users.len() > l.users.len() {
		*l, *other = *other, *l
	}
	bases := make([]int32, len(l.pools))
	for i := range l.pools {
		bases[i] = l.pools[i].adopt(&other.pools[i])
	}
	both := func(_ addrKey, p *pairLife, op pairLife) {
		p.first = min(p.first, op.first)
		p.onRef = p.onRef || op.onRef
	}
	l.users.merge(&other.users, func(s *keyList, i int) {
		s.rebase(bases[i])
	}, func(into, from *keyList, i int) {
		l.pools[i].merge(into, from, both)
	})
}

// onRefAges calls add with the age (days since first seen, 0 = first
// seen on the reference day) of each of one user's pairs in the i-th
// column that were seen on the reference day.
func (l *Lifespans) onRefAges(row []keyList, i int, add func(age int)) {
	for _, p := range l.pools[i].valsOf(row[i]) {
		if p.onRef {
			add(int(l.Ref) - int(p.first))
		}
	}
}

// AgeHist returns the histogram of pair ages (days since first seen,
// 0 = first seen on the reference day) for pairs of the given family and
// prefix length observed on the reference day (Figure 5's "across all
// pairs" curves).
func (l *Lifespans) AgeHist(fam netaddr.Family, length int) *stats.IntHist {
	h := stats.NewIntHist(64)
	if i := slices.Index(l.cols, lifeCol{length, fam}); i >= 0 {
		l.users.eachRow(func(_ uint64, row []keyList) {
			l.onRefAges(row, i, h.Add)
		})
	}
	return h
}

// MedianAgePerUser returns the histogram of per-user median pair ages
// (Figure 5's "User med" curves).
func (l *Lifespans) MedianAgePerUser(fam netaddr.Family, length int) *stats.IntHist {
	h := stats.NewIntHist(64)
	i := slices.Index(l.cols, lifeCol{length, fam})
	if i < 0 {
		return h
	}
	var ages []int
	add := func(age int) { ages = append(ages, age) }
	l.users.eachRow(func(_ uint64, row []keyList) {
		ages = ages[:0]
		l.onRefAges(row, i, add)
		if len(ages) > 0 {
			h.Add(medianInt(ages))
		}
	})
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
	counts := make([][4]int, len(l.cols)) // [pairs, <=1d, <=2d, <=3d]
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
	l.users.eachRow(func(_ uint64, row []keyList) {
		for i, col := range l.cols {
			if col.fam == fam {
				c = &counts[i]
				l.onRefAges(row, i, tally)
			}
		}
	})
	// The other family's columns counted nothing, so they are skipped.
	out := make([]FreshShare, 0, len(counts))
	for i, col := range l.cols {
		c := counts[i]
		if c[0] == 0 {
			continue
		}
		fs := FreshShare{
			Length:  col.length,
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
func (l *Lifespans) Pairs() (n int) {
	l.users.eachRow(func(_ uint64, row []keyList) {
		for _, s := range row {
			n += int(s.n)
		}
	})
	return n
}
