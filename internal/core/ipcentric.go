package core

import (
	"math/bits"
	"slices"

	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/stats"
	"userv6/internal/telemetry"
)

// IPCentric accumulates the user populations of addresses or prefixes at
// one prefix length over its feeding window: the engine behind Figures
// 7-10 and the §6 outlier analyses. Use length 32 for IPv4 addresses,
// 128 for IPv6 addresses, or any IPv6 prefix length.
//
// Its pass state is its user table alone: each user's distinct
// prefixes and label. The first query after a change counts every
// prefix's benign and abusive users from the users' lists and caches
// the counts until the next added entry or Merge, so queries write the
// analyzer: they must not run concurrently with each other or with
// Observe or Merge.
type IPCentric struct {
	// Length is the aggregation prefix length; Family selects which
	// observations are counted.
	Length int
	Family netaddr.Family

	users userTable[userPrefixes]
	pfx   keyPool[addrKey, struct{}]
	// pops caches each prefix's population: nil until a query counts
	// it, and again once Observe adds an entry or Merge runs.
	pops []prefixCount
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
// low 32 bits and abusive accounts in the high 32, so one addition
// counts a user of either label.
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

// prefixCount is one prefix with its population tally.
type prefixCount struct {
	k addrKey
	prefixUsers
}

// NewIPCentric returns an analyzer for one family and prefix length.
func NewIPCentric(fam netaddr.Family, length int) *IPCentric {
	return &IPCentric{Length: length, Family: fam}
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
	if _, added := ic.pfx.slot(&u.pfx, keyOf(netaddr.PrefixFrom(o.Addr, ic.Length).Addr())); added {
		ic.pops = nil
	}
}

// Prefixes returns the number of distinct prefixes observed.
func (ic *IPCentric) Prefixes() int { return len(ic.tally()) }

// Merge folds another analyzer's state into ic: ic adopts other's pool
// chunks whole, users only other saw are adopted, and the prefix lists
// of users both saw are united. Both must use the same family and
// length. Merge enables sharded parallel analysis. The smaller state
// is folded into the larger (the two swap first when other holds more
// users), so other must not be used after Merge.
func (ic *IPCentric) Merge(other *IPCentric) {
	if other.users.len() > ic.users.len() {
		*ic, *other = *other, *ic
	}
	ic.pops = nil
	base := ic.pfx.adopt(&other.pfx)
	ic.users.merge(&other.users, func(u *userPrefixes, _ int) {
		u.pfx.rebase(base)
	}, func(into, from *userPrefixes, _ int) {
		ic.pfx.merge(&into.pfx, &from.pfx, nil)
	})
}

// tallyPart sizes a count's partitions: n (user, prefix) entries go
// to the smallest power of two of partitions above n/tallyPart, so a
// partition holds tallyPart/2 to tallyPart entries on average, few
// enough that the map counting one stays in cache.
const tallyPart = 1 << 12

// tally returns every prefix's population, counting it when no count
// is cached.
func (ic *IPCentric) tally() []prefixCount {
	if ic.pops == nil {
		ic.pops = ic.count()
	}
	return ic.pops
}

// count counts every prefix's benign and abusive users from the users'
// prefix lists. One random map update per entry over all prefixes
// would miss the cache on most entries, so count scatters the entries
// into hash partitions (see tallyPart), counts each partition in one
// small reused map, and writes each partition's counts back over its
// own entries. The result is copied out, so the entries-sized scratch
// is not retained.
func (ic *IPCentric) count() []prefixCount {
	n := 0
	ic.users.each(func(_ uint64, u *userPrefixes) { n += int(u.pfx.n) })
	if n == 0 {
		return nil
	}
	// 2^b partitions; a key's partition is the top b bits of its hash.
	b := bits.Len(uint(n / tallyPart))
	shift := 64 - b
	off := make([]int, 1<<b+1)
	ic.users.each(func(_ uint64, u *userPrefixes) {
		for _, k := range ic.pfx.keysOf(u.pfx) {
			off[k.hash()>>shift+1]++
		}
	})
	for p := 1; p < len(off); p++ {
		off[p] += off[p-1]
	}
	ents := make([]prefixCount, n)
	next := slices.Clone(off)
	ic.users.each(func(_ uint64, u *userPrefixes) {
		pop := popOf(u.abusive)
		for _, k := range ic.pfx.keysOf(u.pfx) {
			p := k.hash() >> shift
			ents[next[p]] = prefixCount{k, pop}
			next[p]++
		}
	})
	m := make(map[addrKey]prefixUsers)
	w := 0
	for p := 0; p+1 < len(off); p++ {
		for _, e := range ents[off[p]:off[p+1]] {
			m[e.k] += e.prefixUsers
		}
		for k, pop := range m {
			ents[w] = prefixCount{k, pop}
			w++
		}
		clear(m)
	}
	return slices.Clone(ents[:w])
}

// UsersPerPrefix returns the histogram of total users (benign + abusive)
// per prefix (Figures 7 and 9).
func (ic *IPCentric) UsersPerPrefix() *stats.IntHist {
	h := stats.NewIntHist(256)
	for _, p := range ic.tally() {
		h.Add(p.users())
	}
	return h
}

// BenignPerPrefix returns the histogram of benign users per prefix.
func (ic *IPCentric) BenignPerPrefix() *stats.IntHist {
	h := stats.NewIntHist(256)
	for _, p := range ic.tally() {
		h.Add(p.benign())
	}
	return h
}

// AbusivePerAbusivePrefix returns the histogram of abusive accounts per
// prefix, over prefixes with at least one abusive account (Figures 8 and
// 10a).
func (ic *IPCentric) AbusivePerAbusivePrefix() *stats.IntHist {
	h := stats.NewIntHist(64)
	for _, p := range ic.tally() {
		if p.abusive() > 0 {
			h.Add(p.abusive())
		}
	}
	return h
}

// BenignPerAbusivePrefix returns the histogram of benign users per
// prefix, over prefixes with at least one abusive account (Figures 8 and
// 10b).
func (ic *IPCentric) BenignPerAbusivePrefix() *stats.IntHist {
	h := stats.NewIntHist(256)
	for _, p := range ic.tally() {
		if p.abusive() > 0 {
			h.Add(p.benign())
		}
	}
	return h
}

// PrefixesWithMoreThan counts prefixes whose total user population
// strictly exceeds n.
func (ic *IPCentric) PrefixesWithMoreThan(n int) int {
	count := 0
	for _, p := range ic.tally() {
		if p.users() > n {
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

// TopPrefixes returns the k most user-populated prefixes, descending,
// ties in address order.
func (ic *IPCentric) TopPrefixes(k int) []HeavyPrefix {
	pops := ic.tally()
	kept := topK(k, func(yield func(prefixCount)) {
		for _, p := range pops {
			yield(p)
		}
	}, func(a, b prefixCount) bool {
		if a.users() != b.users() {
			return a.users() > b.users()
		}
		// One family's keys order as its addresses do.
		return a.k.hi < b.k.hi || a.k.hi == b.k.hi && a.k.lo < b.k.lo
	})
	tops := make([]HeavyPrefix, len(kept))
	for i, p := range kept {
		tops[i] = HeavyPrefix{Prefix: netaddr.PrefixFrom(p.k.addr(ic.Family), ic.Length), Users: p.users(), Abusive: p.abusive()}
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
	for _, p := range ic.tally() {
		if p.users() <= n {
			continue
		}
		a := p.k.addr(ic.Family)
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
