package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"userv6/internal/netaddr"
	"userv6/internal/simtime"
	"userv6/internal/stats"
	"userv6/internal/telemetry"
)

// entityPrefix is one (entity, prefix) pair of an Actioning day, the
// prefix as its masked words: the family and length are the
// Actioning's.
type entityPrefix struct {
	uid uint64
	pfx addrKey
}

// Actioning simulates the §7.1 actioning experiment and the §7.2
// policies built on it over a window of days [From, To]:
//
//   - Counts and Curve evaluate §7.1's single transition: on day To−1,
//     compute each prefix's abusive-account ratio and action every
//     prefix whose ratio meets a threshold; on day To, measure which
//     abusive accounts were caught (TPR) and which benign users were
//     hit (FPR);
//   - Blocklist replays a multi-day blocklist with entry TTLs;
//   - RecallDecay measures how day-From indicators lose recall;
//   - RateLimit caps the entities per prefix per day.
//
// Observe takes the window's observations in any order and ignores
// every other day. The state is each day's set of distinct (entity,
// prefix) pairs, marked abusive when any sighting of the pair was, and
// every query replays its policy over those sets when asked, so any
// order or split of the stream, folded with Merge, gives the same
// answers. One instance evaluates one (family, prefix length) pair;
// Figure 11 runs four two-day ones (/128, /64, /56, IPv4).
type Actioning struct {
	Family   netaddr.Family
	Length   int
	From, To simtime.Day

	// days[d-From] is day d's pairs.
	days []map[entityPrefix]bool
}

// prefixPop is one prefix's population tally.
type prefixPop struct {
	benign, abusive uint32
}

// NewActioning returns a simulator for one family and prefix length
// over days [from, to].
func NewActioning(fam netaddr.Family, length int, from, to simtime.Day) *Actioning {
	ac := &Actioning{Family: fam, Length: length, From: from, To: to, days: make([]map[entityPrefix]bool, to-from+1)}
	for i := range ac.days {
		ac.days[i] = make(map[entityPrefix]bool)
	}
	return ac
}

// Observe feeds one observation: its (entity, prefix) pair joins its
// day's set.
func (ac *Actioning) Observe(o telemetry.Observation) {
	if o.Day < ac.From || o.Day > ac.To || o.Addr.Family() != ac.Family || ac.Length > o.Addr.Bits() {
		return
	}
	key := entityPrefix{uid: o.UserID, pfx: keyOf(netaddr.PrefixFrom(o.Addr, ac.Length).Addr())}
	seen := ac.days[o.Day-ac.From]
	seen[key] = seen[key] || o.Abusive
}

// Merge folds another simulator's pairs into ac, day by day. Both must
// use the same family, length and window. A day's larger set is kept
// and the smaller folded into it, so other must not be used after
// Merge.
func (ac *Actioning) Merge(other *Actioning) {
	for i, from := range other.days {
		into := ac.days[i]
		if len(from) > len(into) {
			into, from = from, into
			ac.days[i] = into
		}
		for k, abusive := range from {
			into[k] = into[k] || abusive
		}
	}
}

// pairs returns day d's pairs (nil outside the window).
func (ac *Actioning) pairs(d simtime.Day) map[entityPrefix]bool {
	if d < ac.From || d > ac.To {
		return nil
	}
	return ac.days[d-ac.From]
}

// pops returns each prefix's population on day d.
func (ac *Actioning) pops(d simtime.Day) map[addrKey]prefixPop {
	pops := make(map[addrKey]prefixPop)
	for k, abusive := range ac.pairs(d) {
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

// actioned reports whether a prefix with population pop is actioned at
// threshold: it holds an abusive account and its abusive ratio meets
// the threshold. A threshold of 0 or below means any abusive presence.
func (pop prefixPop) actioned(threshold float64) bool {
	return pop.abusive > 0 && (threshold <= 0 || float64(pop.abusive)/float64(pop.abusive+pop.benign) >= threshold)
}

// ratios returns, per day-To benign user and per abusive account, the
// maximum day To−1 abusive ratio among the prefixes it appears on: 0 for
// a prefix seen on day To−1 with no abusive account, and -1 when none
// of its prefixes was seen on day To−1.
func (ac *Actioning) ratios() (benign, abusive map[uint64]float64) {
	pops := ac.pops(ac.To - 1)
	benign, abusive = make(map[uint64]float64), make(map[uint64]float64)
	for k, isAbusive := range ac.pairs(ac.To) {
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
// entity is actioned if any of its day-To prefixes had a day To−1
// abusive ratio >= threshold (with at least one abusive account).
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

// DayNPrefixes returns how many prefixes were observed on day To−1.
func (ac *Actioning) DayNPrefixes() int { return len(ac.pops(ac.To - 1)) }

// DayN1Entities returns the day-To population sizes (benign, abusive).
func (ac *Actioning) DayN1Entities() (benign, abusive int) {
	b, a := ac.ratios()
	return len(b), len(a)
}

// Blocklist replays a blocklist with entry TTLs over the window, the
// operational form of the paper's §7.2 blocklisting guidance. At the
// end of each day, every prefix actioned at threshold on that day's
// population is (re-)listed for the ttlDays days after it (a TTL below
// 1 counts as 1), and entries whose coverage has ended are dropped.
// Each day's entities are evaluated against the list as it stood at the
// start of the day: an entity is hit when any of its prefixes is
// listed. Day From only warms the list up; the counts sum days From+1
// through To, each entity counted once per day it appears. size is the
// number of prefixes listed after day To.
func (ac *Actioning) Blocklist(threshold float64, ttlDays int) (c stats.BinaryCounts, size int) {
	ttl := simtime.Day(max(ttlDays, 1))
	// expiry maps a listed prefix to the first day it no longer covers.
	expiry := make(map[addrKey]simtime.Day)
	for d := ac.From; d <= ac.To; d++ {
		if d > ac.From {
			// hit[abusive][uid]: one of the entity's prefixes is listed.
			hit := [2]map[uint64]bool{{}, {}}
			for k, abusive := range ac.pairs(d) {
				m := hit[boolIndex(abusive)]
				m[k.uid] = m[k.uid] || expiry[k.pfx] > d
			}
			tp, fn := tally(hit[1])
			fp, tn := tally(hit[0])
			c.TP, c.FN, c.FP, c.TN = c.TP+tp, c.FN+fn, c.FP+fp, c.TN+tn
		}
		for p, pop := range ac.pops(d) {
			if pop.actioned(threshold) {
				expiry[p] = d + ttl + 1
			}
		}
		for p, end := range expiry {
			if end <= d+1 {
				delete(expiry, p)
			}
		}
	}
	return c, len(expiry)
}

// boolIndex is 1 for true and 0 for false.
func boolIndex(b bool) int {
	if b {
		return 1
	}
	return 0
}

// tally counts the true and the false values of m.
func tally(m map[uint64]bool) (hits, misses uint64) {
	for _, hit := range m {
		if hit {
			hits++
		} else {
			misses++
		}
	}
	return hits, misses
}

// RecallDecay measures how threat-exchange indicators age: for
// k = 1..horizon, the share of the abusive accounts seen on day From+k
// that appear on a prefix an abusive account used on day From (0 when
// no abusive account appears that day). It panics when From+horizon
// passes To.
func (ac *Actioning) RecallDecay(horizon int) []float64 {
	if ac.From+simtime.Day(horizon) > ac.To {
		panic(fmt.Sprintf("core: RecallDecay(%d) passes the window's last day %d", horizon, ac.To))
	}
	indicators := make(map[addrKey]bool)
	for k, abusive := range ac.pairs(ac.From) {
		if abusive {
			indicators[k.pfx] = true
		}
	}
	out := make([]float64, 0, horizon)
	for d := ac.From + 1; d <= ac.From+simtime.Day(horizon); d++ {
		caught := make(map[uint64]bool)
		for k, abusive := range ac.pairs(d) {
			if abusive {
				caught[k.uid] = caught[k.uid] || indicators[k.pfx]
			}
		}
		share := 0.0
		if hits, misses := tally(caught); hits+misses > 0 {
			share = float64(hits) / float64(hits+misses)
		}
		out = append(out, share)
	}
	return out
}

// RateLimitOutcome summarizes a rate-limit run.
type RateLimitOutcome struct {
	Cap                       int
	BenignThrottled, Benign   int
	AbusiveThrottled, Abusive int
	BenignShare, AbusiveShare float64
}

// RateLimit evaluates §7.2 rate limiting at each cap: per prefix and
// day, the first cap distinct entities are admitted and the rest are
// throttled. Tight caps are safe on IPv6 precisely because benign
// populations per address are tiny. A (day, prefix)'s entities are
// admitted benign users first, by ID, then abusive accounts, by ID: the
// order in which a generated stream delivers them. An outcome counts
// the entities throttled on any (day, prefix) among all the window's
// entities; a cap below 1 counts as 1.
func (ac *Actioning) RateLimit(caps []int) []RateLimitOutcome {
	type entity struct {
		abusive bool
		uid     uint64
	}
	// rank[abusive][uid] is the entity's worst admission rank (0 is
	// first) over every (day, prefix) it appears on.
	rank := [2]map[uint64]int{{}, {}}
	for _, pairs := range ac.days {
		byPrefix := make(map[addrKey][]entity)
		for k, abusive := range pairs {
			byPrefix[k.pfx] = append(byPrefix[k.pfx], entity{abusive, k.uid})
		}
		for _, es := range byPrefix {
			slices.SortFunc(es, func(a, b entity) int {
				return cmp.Or(boolIndex(a.abusive)-boolIndex(b.abusive), cmp.Compare(a.uid, b.uid))
			})
			for r, e := range es {
				m := rank[boolIndex(e.abusive)]
				if prev, ok := m[e.uid]; !ok || r > prev {
					m[e.uid] = r
				}
			}
		}
	}
	throttled := func(ranks map[uint64]int, limit int) int {
		n := 0
		for _, r := range ranks {
			if r >= limit {
				n++
			}
		}
		return n
	}
	out := make([]RateLimitOutcome, len(caps))
	for i, limit := range caps {
		limit = max(limit, 1)
		o := RateLimitOutcome{
			Cap:              limit,
			BenignThrottled:  throttled(rank[0], limit),
			Benign:           len(rank[0]),
			AbusiveThrottled: throttled(rank[1], limit),
			Abusive:          len(rank[1]),
		}
		if o.Benign > 0 {
			o.BenignShare = float64(o.BenignThrottled) / float64(o.Benign)
		}
		if o.Abusive > 0 {
			o.AbusiveShare = float64(o.AbusiveThrottled) / float64(o.Abusive)
		}
		out[i] = o
	}
	return out
}

// DefaultThresholds returns the threshold sweep used for Figure 11:
// 0 (any abusive presence) through 1.0 (pure-abuse prefixes only).
func DefaultThresholds() []float64 {
	return []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0}
}
