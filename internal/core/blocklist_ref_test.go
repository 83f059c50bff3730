package core

// The references for Actioning's Blocklist and RateLimit queries: the
// order-dependent simulators they replaced, kept verbatim.
// BlocklistSim is fed day by day; RateLimitSim admits entities in feed
// order. TestActioningMatchesReferenceSims checks the queries against
// them.

import (
	"userv6/internal/netaddr"
	"userv6/internal/simtime"
	"userv6/internal/stats"
	"userv6/internal/telemetry"
)

// pairKey identifies a (user, prefix-or-address) pair in the
// references' sets.
type pairKey struct {
	uid uint64
	pfx netaddr.Prefix
}

// BlocklistSim extends the §7.1 single-transition actioning experiment
// to a multi-day blocklist with entry TTLs — the operational form of the
// paper's §7.2 blocklisting guidance. Each day, prefixes whose abusive
// ratio meets the threshold are (re-)listed; entries expire after TTL
// days; the next day's traffic is evaluated against the current list.
//
// Feed days in ascending order: first ObserveDay with all of a day's
// observations, then call EndDay exactly once. Metrics accumulate across
// the whole run.
type BlocklistSim struct {
	Family    netaddr.Family
	Length    int
	Threshold float64
	TTLDays   int

	// list maps prefix -> expiry day (exclusive).
	list map[netaddr.Prefix]simtime.Day

	// today's accumulation.
	day      simtime.Day
	seen     map[pairKey]struct{}
	todayPop map[netaddr.Prefix]*prefixPop
	// per-entity "hit" marks for today.
	benignHit, benignAll   map[uint64]struct{}
	abusiveHit, abusiveAll map[uint64]struct{}

	// totals after each EndDay.
	total stats.BinaryCounts
	days  int
}

// NewBlocklistSim returns a simulator at one granularity, ratio
// threshold, and TTL.
func NewBlocklistSim(fam netaddr.Family, length int, threshold float64, ttlDays int) *BlocklistSim {
	if ttlDays < 1 {
		ttlDays = 1
	}
	b := &BlocklistSim{
		Family:    fam,
		Length:    length,
		Threshold: threshold,
		TTLDays:   ttlDays,
		list:      make(map[netaddr.Prefix]simtime.Day),
		day:       -1,
	}
	b.resetDay()
	return b
}

func (b *BlocklistSim) resetDay() {
	b.seen = make(map[pairKey]struct{})
	b.todayPop = make(map[netaddr.Prefix]*prefixPop)
	b.benignHit = make(map[uint64]struct{})
	b.benignAll = make(map[uint64]struct{})
	b.abusiveHit = make(map[uint64]struct{})
	b.abusiveAll = make(map[uint64]struct{})
}

// ObserveDay feeds one observation of the current day. Observations are
// evaluated against the blocklist as it stood at the start of the day.
func (b *BlocklistSim) ObserveDay(o telemetry.Observation) {
	if o.Addr.Family() != b.Family || b.Length > o.Addr.Bits() {
		return
	}
	if b.day < 0 {
		b.day = o.Day
	}
	p := netaddr.PrefixFrom(o.Addr, b.Length)
	key := pairKey{uid: o.UserID, pfx: p}
	if _, dup := b.seen[key]; dup {
		return
	}
	b.seen[key] = struct{}{}

	pop := b.todayPop[p]
	if pop == nil {
		pop = &prefixPop{}
		b.todayPop[p] = pop
	}
	listed := false
	if expiry, ok := b.list[p]; ok && expiry > o.Day {
		listed = true
	}
	if o.Abusive {
		pop.abusive++
		b.abusiveAll[o.UserID] = struct{}{}
		if listed {
			b.abusiveHit[o.UserID] = struct{}{}
		}
	} else {
		pop.benign++
		b.benignAll[o.UserID] = struct{}{}
		if listed {
			b.benignHit[o.UserID] = struct{}{}
		}
	}
}

// EndDay finalizes the current day: tallies hits against the standing
// list, then refreshes the list from today's abusive ratios.
func (b *BlocklistSim) EndDay() {
	// The first fed day only warms the list up (it was empty while its
	// traffic arrived); hits are tallied from the second day on.
	if b.days > 0 {
		b.total.TP += uint64(len(b.abusiveHit))
		b.total.FN += uint64(len(b.abusiveAll) - len(b.abusiveHit))
		b.total.FP += uint64(len(b.benignHit))
		b.total.TN += uint64(len(b.benignAll) - len(b.benignHit))
	}
	// Refresh: today's qualifying prefixes are (re-)listed, covering
	// the TTL days after today (an entry created at the end of day d is
	// active on days d+1 .. d+TTL).
	t := b.Threshold
	for p, pop := range b.todayPop {
		if pop.abusive == 0 {
			continue
		}
		ratio := float64(pop.abusive) / float64(pop.abusive+pop.benign)
		if ratio >= t || t <= 0 {
			b.list[p] = b.day + simtime.Day(b.TTLDays) + 1
		}
	}
	// Evict entries whose coverage has ended.
	for p, expiry := range b.list {
		if expiry <= b.day+1 {
			delete(b.list, p)
		}
	}
	b.days++
	b.day = -1
	b.resetDay()
}

// Counts returns the accumulated confusion counts over all measured
// days (the first fed day is list warmup and not measured).
func (b *BlocklistSim) Counts() stats.BinaryCounts { return b.total }

// ListSize returns the current number of listed prefixes.
func (b *BlocklistSim) ListSize() int { return len(b.list) }

// RateLimitSim evaluates §7.2 rate limiting: cap the number of distinct
// entities allowed per prefix per day; entities beyond the cap are
// throttled. It measures what fraction of benign users and abusive
// accounts get throttled at a given cap — tight caps are safe on IPv6
// precisely because benign populations per address are tiny.
type RateLimitSim struct {
	Family netaddr.Family
	Length int
	Cap    int

	seen  map[pairKey]struct{}
	count map[dayPrefixKey]int
	// throttledBenign/Abusive are entity sets over the whole run.
	throttledBenign, allBenign   map[uint64]struct{}
	throttledAbusive, allAbusive map[uint64]struct{}
}

// NewRateLimitSim returns a simulator capping entities per prefix-day.
func NewRateLimitSim(fam netaddr.Family, length, cap int) *RateLimitSim {
	if cap < 1 {
		cap = 1
	}
	return &RateLimitSim{
		Family:           fam,
		Length:           length,
		Cap:              cap,
		seen:             make(map[pairKey]struct{}),
		count:            make(map[dayPrefixKey]int),
		throttledBenign:  make(map[uint64]struct{}),
		allBenign:        make(map[uint64]struct{}),
		throttledAbusive: make(map[uint64]struct{}),
		allAbusive:       make(map[uint64]struct{}),
	}
}

// Observe feeds one observation (any day order within a day; the
// first-come-first-served cap follows feed order, as a real limiter
// would).
func (r *RateLimitSim) Observe(o telemetry.Observation) {
	if o.Addr.Family() != r.Family || r.Length > o.Addr.Bits() {
		return
	}
	p := netaddr.PrefixFrom(o.Addr, r.Length)
	// Per-day dedup: one slot per (entity, prefix, day). Reuse pairKey
	// with the day folded into the uid's high bits would risk
	// collisions; key explicitly.
	key := pairKey{uid: o.UserID ^ uint64(o.Day)<<52, pfx: p}
	if _, dup := r.seen[key]; dup {
		return
	}
	r.seen[key] = struct{}{}

	if o.Abusive {
		r.allAbusive[o.UserID] = struct{}{}
	} else {
		r.allBenign[o.UserID] = struct{}{}
	}
	dk := dayPrefixKey{day: o.Day, pfx: p}
	r.count[dk]++
	if r.count[dk] > r.Cap {
		if o.Abusive {
			r.throttledAbusive[o.UserID] = struct{}{}
		} else {
			r.throttledBenign[o.UserID] = struct{}{}
		}
	}
}

// Outcome returns the accumulated throttling shares.
func (r *RateLimitSim) Outcome() RateLimitOutcome {
	out := RateLimitOutcome{
		Cap:              r.Cap,
		BenignThrottled:  len(r.throttledBenign),
		Benign:           len(r.allBenign),
		AbusiveThrottled: len(r.throttledAbusive),
		Abusive:          len(r.allAbusive),
	}
	if out.Benign > 0 {
		out.BenignShare = float64(out.BenignThrottled) / float64(out.Benign)
	}
	if out.Abusive > 0 {
		out.AbusiveShare = float64(out.AbusiveThrottled) / float64(out.Abusive)
	}
	return out
}
