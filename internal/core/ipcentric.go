package core

import (
	"sort"

	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/stats"
	"userv6/internal/telemetry"
)

// IPCentric accumulates the user populations of addresses or prefixes at
// one prefix length over its feeding window: the engine behind Figures
// 7-10 and the §6 outlier analyses. Use length 32 for IPv4 addresses,
// 128 for IPv6 addresses, or any IPv6 prefix length.
type IPCentric struct {
	// Length is the aggregation prefix length; Family selects which
	// observations are counted.
	Length int
	Family netaddr.Family

	users userTable[userPrefixes]
	pfx   keyPool[addrKey, struct{}]
	// prefixes tallies each prefix's users, keyed like pfx: one per
	// (user, prefix) entry, counted when the entry is added.
	prefixes map[addrKey]prefixUsers
}

// userPrefixes holds one user's distinct prefixes, in the pfx pool,
// and the abusive label of its first record. Abusive account IDs are
// disjoint from benign user IDs, so every record of a user carries the
// same label.
type userPrefixes struct {
	pfx     keyList
	abusive bool
}

// prefixUsers is one prefix's population tally: benign users in the
// low 32 bits and abusive accounts in the high 32, so one map update
// counts (or uncounts) a user of either label.
type prefixUsers uint64

// popOf is the tally of one user with the given label.
func popOf(abusive bool) prefixUsers {
	if abusive {
		return 1 << 32
	}
	return 1
}

func (p prefixUsers) benign() int  { return int(uint32(p)) }
func (p prefixUsers) abusive() int { return int(p >> 32) }
func (p prefixUsers) users() int   { return p.benign() + p.abusive() }

// NewIPCentric returns an analyzer for one family and prefix length.
func NewIPCentric(fam netaddr.Family, length int) *IPCentric {
	return &IPCentric{Length: length, Family: fam, prefixes: make(map[addrKey]prefixUsers)}
}

// Observe feeds one observation.
func (ic *IPCentric) Observe(o telemetry.Observation) {
	if o.Addr.Family() != ic.Family || ic.Length > o.Addr.Bits() {
		return
	}
	u, added := ic.users.get(o.UserID)
	if added {
		u.abusive = o.Abusive
	}
	p := keyOf(netaddr.PrefixFrom(o.Addr, ic.Length).Addr())
	if _, added := ic.pfx.slot(&u.pfx, p); !added {
		return
	}
	ic.prefixes[p] += popOf(u.abusive)
}

// Prefixes returns the number of distinct prefixes observed.
func (ic *IPCentric) Prefixes() int { return len(ic.prefixes) }

// Merge folds another analyzer's state into ic: the prefix tallies sum,
// ic adopts other's pool chunks whole, users only other saw are
// adopted, and for users both saw each (user, prefix) entry both
// counted is kept once and uncounted once. Both must use the same
// family and length. Merge enables sharded parallel
// analysis. The smaller state is folded into the larger (the two swap
// first when other holds more users), so other must not be used after
// Merge.
func (ic *IPCentric) Merge(other *IPCentric) {
	if other.users.len() > ic.users.len() {
		*ic, *other = *other, *ic
	}
	for p, op := range other.prefixes {
		ic.prefixes[p] += op
	}
	base := ic.pfx.adopt(&other.pfx)
	ic.users.merge(&other.users, func(u *userPrefixes, _ int) {
		u.pfx.rebase(base)
	}, func(into, from *userPrefixes, _ int) {
		ic.pfx.merge(&into.pfx, &from.pfx, func(p addrKey, _ *struct{}, _ struct{}) {
			ic.prefixes[p] -= popOf(into.abusive)
		})
	})
}

// UsersPerPrefix returns the histogram of total users (benign + abusive)
// per prefix (Figures 7 and 9).
func (ic *IPCentric) UsersPerPrefix() *stats.IntHist {
	h := stats.NewIntHist(256)
	for _, pop := range ic.prefixes {
		h.Add(pop.users())
	}
	return h
}

// BenignPerPrefix returns the histogram of benign users per prefix.
func (ic *IPCentric) BenignPerPrefix() *stats.IntHist {
	h := stats.NewIntHist(256)
	for _, pop := range ic.prefixes {
		h.Add(pop.benign())
	}
	return h
}

// AbusivePerAbusivePrefix returns the histogram of abusive accounts per
// prefix, over prefixes with at least one abusive account (Figures 8 and
// 10a).
func (ic *IPCentric) AbusivePerAbusivePrefix() *stats.IntHist {
	h := stats.NewIntHist(64)
	for _, pop := range ic.prefixes {
		if pop.abusive() > 0 {
			h.Add(pop.abusive())
		}
	}
	return h
}

// BenignPerAbusivePrefix returns the histogram of benign users per
// prefix, over prefixes with at least one abusive account (Figures 8 and
// 10b).
func (ic *IPCentric) BenignPerAbusivePrefix() *stats.IntHist {
	h := stats.NewIntHist(256)
	for _, pop := range ic.prefixes {
		if pop.abusive() > 0 {
			h.Add(pop.benign())
		}
	}
	return h
}

// PrefixesWithMoreThan counts prefixes whose total user population
// strictly exceeds n.
func (ic *IPCentric) PrefixesWithMoreThan(n int) int {
	count := 0
	for _, pop := range ic.prefixes {
		if pop.users() > n {
			count++
		}
	}
	return count
}

// AbusivePrefixesWithMoreThan counts prefixes whose abusive population
// strictly exceeds n.
func (ic *IPCentric) AbusivePrefixesWithMoreThan(n int) int {
	count := 0
	for _, pop := range ic.prefixes {
		if pop.abusive() > n {
			count++
		}
	}
	return count
}

// HeavyPrefix is a prefix ranked by its user population.
type HeavyPrefix struct {
	Prefix         netaddr.Prefix
	Users, Abusive int
}

// TopPrefixes returns the k most user-populated prefixes, descending.
func (ic *IPCentric) TopPrefixes(k int) []HeavyPrefix {
	tops := make([]HeavyPrefix, 0, len(ic.prefixes))
	for k, pop := range ic.prefixes {
		tops = append(tops, HeavyPrefix{Prefix: netaddr.PrefixFrom(k.addr(ic.Family), ic.Length), Users: pop.users(), Abusive: pop.abusive()})
	}
	sort.Slice(tops, func(i, j int) bool {
		if tops[i].Users != tops[j].Users {
			return tops[i].Users > tops[j].Users
		}
		return tops[i].Prefix.Addr().Less(tops[j].Prefix.Addr())
	})
	if k < len(tops) {
		tops = tops[:k]
	}
	return tops
}

// HeavyConcentration summarizes where heavily populated prefixes live:
// which ASNs own them and how many carry structured (gateway-style)
// interface identifiers — the basis for the paper's finding that heavy
// IPv6 addresses are predictable (§6.1.3).
type HeavyConcentration struct {
	// Heavy is the number of prefixes above the threshold.
	Heavy int
	// TopASN and TopASNShare identify the dominant owner.
	TopASN      netmodel.ASN
	TopASNShare float64
	// ASNs is the number of distinct owning ASNs.
	ASNs int
	// StructuredShare is the fraction of heavy prefixes whose base
	// address has a structured IID (only meaningful at length 128).
	StructuredShare float64
}

// ConcentrationAbove computes the heavy-prefix concentration for
// prefixes with more than n users, attributing ownership via asnOf.
func (ic *IPCentric) ConcentrationAbove(n int, asnOf func(netaddr.Addr) netmodel.ASN) HeavyConcentration {
	var hc HeavyConcentration
	perASN := make(map[netmodel.ASN]int)
	structured := 0
	for k, pop := range ic.prefixes {
		if pop.users() <= n {
			continue
		}
		a := k.addr(ic.Family)
		hc.Heavy++
		if asnOf != nil {
			perASN[asnOf(a)]++
		}
		if netaddr.IsStructuredIID(a) {
			structured++
		}
	}
	hc.ASNs = len(perASN)
	best := 0
	for asn, c := range perASN {
		if c > best || (c == best && asn < hc.TopASN) {
			best = c
			hc.TopASN = asn
		}
	}
	if hc.Heavy > 0 && best > 0 {
		hc.TopASNShare = float64(best) / float64(hc.Heavy)
	}
	if hc.Heavy > 0 {
		hc.StructuredShare = float64(structured) / float64(hc.Heavy)
	}
	return hc
}
