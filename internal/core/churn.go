package core

import (
	"userv6/internal/netaddr"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// ChurnCause classifies why a user appeared on a new IPv6 address — the
// paper's §8 calls for exactly this ("investigating the causes of
// dynamic IPv6 behavior, similar to the exploration of IPv4 dynamic
// address reasons by Padmanabhan et al."). The attribution uses only
// telemetry (no world-model internals), so it would run unchanged on
// real data:
//
//   - IIDRotation: new address inside a /64 the user already occupied —
//     privacy-extension / temporary-address rotation;
//   - SubnetMove: new /64 but inside a /44 the user already occupied —
//     delegated-prefix re-draw or mobile gateway move within a carrier
//     region;
//   - NetworkSwitch: new /44 as well — roaming to a different network
//     (or a provider-level renumbering).
type ChurnCause uint8

const (
	// IIDRotation is a new IID within a known /64.
	IIDRotation ChurnCause = iota
	// SubnetMove is a new /64 within a known /44.
	SubnetMove
	// NetworkSwitch is an entirely new region of the address space.
	NetworkSwitch
)

// String labels the cause.
func (c ChurnCause) String() string {
	switch c {
	case IIDRotation:
		return "iid-rotation"
	case SubnetMove:
		return "subnet-move"
	default:
		return "network-switch"
	}
}

// ChurnAttribution tallies new (user, IPv6 address) pairs by cause.
//
// The state is a set of (user, day, observed-prefix) first-sight
// tuples: for each user and each prefix the user was seen behind — the
// full /128 address, its /64, and its /44 — only the earliest day of
// contact is kept. Accumulation is therefore a pure min-fold: it is
// invariant under observation order and under how the stream is
// partitioned across replicas (Merge folds the tuples by minimum), so
// the analyzer is safe to register with AddCommutativeAnalyzer and to
// feed from fused readers. Causes are not classified
// during the stream at all; Breakdown derives them from the first-day
// structure at query time.
type ChurnAttribution struct {
	// Warmup days at the start of the stream establish per-user state
	// without being counted (a pair is only "new" against history).
	CountFrom simtime.Day

	users           userTable[userFirsts]
	addrs, p64, p44 dayPool
}

// dayPool holds first-sight days by IPv6 prefix.
type dayPool = keyPool[addrKey, int32]

// userFirsts holds one user's earliest day seen behind each /128
// address, each /64 and each /44, in the pools of the same name.
type userFirsts struct {
	addrs, p64, p44 keyList
}

// NewChurnAttribution counts new pairs from countFrom onward; earlier
// days only build history.
func NewChurnAttribution(countFrom simtime.Day) *ChurnAttribution {
	return &ChurnAttribution{CountFrom: countFrom}
}

// Observe feeds one observation (IPv6 only; others are ignored).
// Observations may arrive in any order.
func (c *ChurnAttribution) Observe(o telemetry.Observation) {
	if !o.Addr.Is6() {
		return
	}
	u, _ := c.users.get(o.UserID)
	day := int32(o.Day)
	d, added := c.addrs.slot(&u.addrs, keyOf(o.Addr))
	if !added && *d <= day {
		// Dominated sighting: the address was already seen on an
		// earlier (or equal) day, so the /64 and /44 minima cannot
		// improve either — they were set at least as early.
		return
	}
	*d = day
	minDay(&c.p64, &u.p64, keyOf(netaddr.PrefixFrom(o.Addr, 64).Addr()), day)
	minDay(&c.p44, &u.p44, keyOf(netaddr.PrefixFrom(o.Addr, 44).Addr()), day)
}

func minDay(p *dayPool, l *keyList, k addrKey, d int32) {
	if cur, added := p.slot(l, k); added || d < *cur {
		*cur = d
	}
}

// Merge folds another attribution's first-sight tuples into c by
// minimum day: c adopts other's pool chunks whole, users only other
// saw are adopted, and the tuples of users both saw fold by minimum.
// The fold is exact for ANY split of the observation stream —
// user-disjoint, round-robin, block-wise, anything — because min is
// commutative, associative, and idempotent.
// Both analyzers must use the same CountFrom. The smaller state is
// folded into the larger (the two swap first when other holds more
// users), so other must not be used after Merge.
func (c *ChurnAttribution) Merge(other *ChurnAttribution) {
	if other.users.len() > c.users.len() {
		*c, *other = *other, *c
	}
	keepMin := func(_ addrKey, d *int32, od int32) { *d = min(*d, od) }
	ba, b64, b44 := c.addrs.adopt(&other.addrs), c.p64.adopt(&other.p64), c.p44.adopt(&other.p44)
	c.users.merge(&other.users, func(u *userFirsts, _ int) {
		u.addrs.rebase(ba)
		u.p64.rebase(b64)
		u.p44.rebase(b44)
	}, func(into, from *userFirsts, _ int) {
		c.addrs.merge(&into.addrs, &from.addrs, keepMin)
		c.p64.merge(&into.p64, &from.p64, keepMin)
		c.p44.merge(&into.p44, &from.p44, keepMin)
	})
}

// ChurnBreakdown is the attribution result.
type ChurnBreakdown struct {
	IIDRotation, SubnetMove, NetworkSwitch uint64
	Total                                  uint64
}

// Share returns the cause's fraction of all attributed churn.
func (b ChurnBreakdown) Share(cause ChurnCause) float64 {
	if b.Total == 0 {
		return 0
	}
	switch cause {
	case IIDRotation:
		return float64(b.IIDRotation) / float64(b.Total)
	case SubnetMove:
		return float64(b.SubnetMove) / float64(b.Total)
	default:
		return float64(b.NetworkSwitch) / float64(b.Total)
	}
}

// Breakdown derives the cause tallies from the first-sight structure.
//
// Each (user, address) pair whose first day is >= CountFrom counts
// exactly once. Classification reproduces the multiset of causes a
// day-ordered transition walk produces:
//
//   - the /64 was first seen on an earlier day -> IIDRotation (the
//     rotation landed in a /64 the user already had history in);
//   - the address is in its /64's first-day cohort, but another
//     address already represented that cohort -> IIDRotation (in a
//     stream walk every cohort member after the first rotates within
//     the by-then-known /64);
//   - the address opens its /64: the /44 was first seen on an earlier
//     day -> SubnetMove; otherwise the /64 is in its /44's first-day
//     cohort, whose first opener is the NetworkSwitch and the rest are
//     SubnetMoves.
//
// Which cohort member is "first" depends on the order a user's
// addresses are held in, but only the labels move between
// identical-cause members — the tallies are deterministic, equal to the
// sequential walk's for any feeding order or partition.
func (c *ChurnAttribution) Breakdown() ChurnBreakdown {
	var counts [3]uint64
	// opened64[j] / opened44[h]: the user's j-th /64 or h-th /44 cohort
	// already has its opener.
	var opened64, opened44 []bool
	c.users.each(func(_ uint64, u *userFirsts) {
		opened64 = resetFlags(opened64, int(u.p64.n))
		opened44 = resetFlags(opened44, int(u.p44.n))
		days, days64, days44 := c.addrs.valsOf(u.addrs), c.p64.valsOf(u.p64), c.p44.valsOf(u.p44)
		for i, k := range c.addrs.keysOf(u.addrs) {
			dAddr := days[i]
			if simtime.Day(dAddr) < c.CountFrom {
				continue
			}
			a := k.addr(netaddr.IPv6)
			j := c.p64.find(u.p64, keyOf(netaddr.PrefixFrom(a, 64).Addr()))
			if days64[j] < dAddr || opened64[j] {
				counts[IIDRotation]++
				continue
			}
			opened64[j] = true
			h := c.p44.find(u.p44, keyOf(netaddr.PrefixFrom(a, 44).Addr()))
			if days44[h] < dAddr || opened44[h] {
				counts[SubnetMove]++
				continue
			}
			opened44[h] = true
			counts[NetworkSwitch]++
		}
	})
	return ChurnBreakdown{
		IIDRotation:   counts[IIDRotation],
		SubnetMove:    counts[SubnetMove],
		NetworkSwitch: counts[NetworkSwitch],
		Total:         counts[0] + counts[1] + counts[2],
	}
}

// resetFlags returns flags resized to n entries, all false.
func resetFlags(flags []bool, n int) []bool {
	if cap(flags) < n {
		return make([]bool, n)
	}
	flags = flags[:n]
	clear(flags)
	return flags
}
