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
// partitioned across replicas (Merge folds the maps by minimum), so
// the analyzer is safe to register with AddCommutativeAnalyzer and to
// feed from fused readers. Causes are not classified
// during the stream at all; Breakdown derives them from the first-day
// structure at query time.
type ChurnAttribution struct {
	// Warmup days at the start of the stream establish per-user state
	// without being counted (a pair is only "new" against history).
	CountFrom simtime.Day

	firstAddr map[pairKey]simtime.Day // (user, /128) -> earliest day seen
	first64   map[pairKey]simtime.Day // (user, /64)  -> earliest day seen
	first44   map[pairKey]simtime.Day // (user, /44)  -> earliest day seen
}

// NewChurnAttribution counts new pairs from countFrom onward; earlier
// days only build history.
func NewChurnAttribution(countFrom simtime.Day) *ChurnAttribution {
	return &ChurnAttribution{
		CountFrom: countFrom,
		firstAddr: make(map[pairKey]simtime.Day),
		first64:   make(map[pairKey]simtime.Day),
		first44:   make(map[pairKey]simtime.Day),
	}
}

// Observe feeds one observation (IPv6 only; others are ignored).
// Observations may arrive in any order.
func (c *ChurnAttribution) Observe(o telemetry.Observation) {
	if !o.Addr.Is6() {
		return
	}
	addrKey := pairKey{uid: o.UserID, pfx: netaddr.PrefixFrom(o.Addr, 128)}
	if cur, ok := c.firstAddr[addrKey]; ok && cur <= o.Day {
		// Dominated sighting: the address was already seen on an
		// earlier (or equal) day, so the /64 and /44 minima cannot
		// improve either — they were set at least as early.
		return
	}
	c.firstAddr[addrKey] = o.Day
	minDay(c.first64, pairKey{uid: o.UserID, pfx: netaddr.PrefixFrom(o.Addr, 64)}, o.Day)
	minDay(c.first44, pairKey{uid: o.UserID, pfx: netaddr.PrefixFrom(o.Addr, 44)}, o.Day)
}

func minDay(m map[pairKey]simtime.Day, k pairKey, d simtime.Day) {
	if cur, ok := m[k]; !ok || d < cur {
		m[k] = d
	}
}

// Merge folds another attribution's first-sight tuples into c by
// minimum day. The fold is exact for ANY split of the observation
// stream — user-disjoint, round-robin, block-wise, anything — because
// min is commutative, associative, and idempotent. Both analyzers must
// use the same CountFrom.
func (c *ChurnAttribution) Merge(other *ChurnAttribution) {
	for k, d := range other.firstAddr {
		minDay(c.firstAddr, k, d)
	}
	for k, d := range other.first64 {
		minDay(c.first64, k, d)
	}
	for k, d := range other.first44 {
		minDay(c.first44, k, d)
	}
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
// Which cohort member is "first" depends on map iteration order, but
// only the labels move between identical-cause members — the tallies
// are deterministic, equal to the sequential walk's for any feeding
// order or partition.
func (c *ChurnAttribution) Breakdown() ChurnBreakdown {
	var counts [3]uint64
	opener64 := make(map[pairKey]struct{})
	opener44 := make(map[pairKey]struct{})
	for k, dAddr := range c.firstAddr {
		if dAddr < c.CountFrom {
			continue
		}
		a := k.pfx.Addr()
		k64 := pairKey{uid: k.uid, pfx: netaddr.PrefixFrom(a, 64)}
		if c.first64[k64] < dAddr {
			counts[IIDRotation]++
			continue
		}
		if _, taken := opener64[k64]; taken {
			counts[IIDRotation]++
			continue
		}
		opener64[k64] = struct{}{}
		k44 := pairKey{uid: k.uid, pfx: netaddr.PrefixFrom(a, 44)}
		if c.first44[k44] < dAddr {
			counts[SubnetMove]++
			continue
		}
		if _, taken := opener44[k44]; taken {
			counts[SubnetMove]++
			continue
		}
		opener44[k44] = struct{}{}
		counts[NetworkSwitch]++
	}
	return ChurnBreakdown{
		IIDRotation:   counts[IIDRotation],
		SubnetMove:    counts[SubnetMove],
		NetworkSwitch: counts[NetworkSwitch],
		Total:         counts[0] + counts[1] + counts[2],
	}
}
