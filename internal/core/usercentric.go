// Package core implements the paper's contribution: user-level analysis
// of IPv6 (and IPv4) behavior. It provides user-centric analyzers
// (addresses, prefixes and lifespans per user — §5), IP-centric
// analyzers (user populations per address and prefix — §6), the
// actioning/ROC simulator (§7.1), outlier characterization (RQ3), and
// the security-policy advisor (§7.2).
//
// All analyzers are streaming: they consume telemetry.Observation values
// through Observe and answer queries afterwards. They deduplicate
// (entity, address) pairs internally, so feeding the same observation
// twice is harmless.
package core

import (
	"userv6/internal/netaddr"
	"userv6/internal/stats"
	"userv6/internal/telemetry"
)

// UserCentric accumulates per-user address diversity over its feeding
// window: the engine behind Figures 2, 3 and 4 and the §4.4 client
// address patterns. The zero value is ready to use.
type UserCentric struct {
	users  userTable[userAddrs]
	v4, v6 keyPool[addrKey, struct{}]
	// abusiveOnly restricts accounting to abusive or benign entities.
	abusiveOnly, benignOnly bool
}

// userAddrs holds one user's distinct addresses, in the v4 and v6
// pools.
type userAddrs struct {
	v4, v6 keyList
}

// count returns the user's number of distinct addresses of the family.
func (u *userAddrs) count(fam netaddr.Family) int {
	if fam == netaddr.IPv6 {
		return int(u.v6.n)
	}
	return int(u.v4.n)
}

// NewUserCentric returns an analyzer accepting every entity.
func NewUserCentric() *UserCentric { return &UserCentric{} }

// NewUserCentricFor returns an analyzer restricted to abusive accounts
// (abusive = true) or benign users (abusive = false).
func NewUserCentricFor(abusive bool) *UserCentric {
	return &UserCentric{abusiveOnly: abusive, benignOnly: !abusive}
}

// Observe feeds one observation.
func (uc *UserCentric) Observe(o telemetry.Observation) {
	if (uc.abusiveOnly && !o.Abusive) || (uc.benignOnly && o.Abusive) {
		return
	}
	if !o.Addr.IsValid() {
		return
	}
	u, _ := uc.users.get(o.UserID)
	if o.Addr.Is4() {
		uc.v4.slot(&u.v4, keyOf(o.Addr))
	} else {
		uc.v6.slot(&u.v6, keyOf(o.Addr))
	}
}

// Users returns the number of distinct entities observed.
func (uc *UserCentric) Users() int { return uc.users.len() }

// Merge folds another analyzer's state into uc: uc adopts other's pool
// chunks whole, users only other saw are adopted, and the address
// lists of users both saw are united.
// Both analyzers must use the same restriction. Merge enables sharded
// parallel analysis: feed disjoint telemetry shards to separate
// analyzers, then merge. The smaller state is folded into the larger
// (the two swap first when other holds more users), so other must not
// be used after Merge.
func (uc *UserCentric) Merge(other *UserCentric) {
	if other.users.len() > uc.users.len() {
		*uc, *other = *other, *uc
	}
	b4, b6 := uc.v4.adopt(&other.v4), uc.v6.adopt(&other.v6)
	uc.users.merge(&other.users, func(u *userAddrs, _ int) {
		u.v4.rebase(b4)
		u.v6.rebase(b6)
	}, func(into, from *userAddrs, _ int) {
		uc.v4.merge(&into.v4, &from.v4, nil)
		uc.v6.merge(&into.v6, &from.v6, nil)
	})
}

// AddrsPerUser returns the histogram of distinct addresses per user for
// one family, counting only users that have at least one address of that
// family (matching the paper's per-protocol user populations).
func (uc *UserCentric) AddrsPerUser(fam netaddr.Family) *stats.IntHist {
	h := stats.NewIntHist(64)
	uc.users.each(func(_ uint64, u *userAddrs) {
		if n := u.count(fam); n > 0 {
			h.Add(n)
		}
	})
	return h
}

// SpanShare reports, for each requested IPv6 prefix length, the fraction
// of IPv6 users whose addresses span exactly 1, at most 2, and at most 3
// distinct prefixes of that length (Figure 4).
type SpanShare struct {
	Length                int
	One, AtMost2, AtMost3 float64
}

// PrefixSpans computes Figure 4's curves for the given prefix lengths.
func (uc *UserCentric) PrefixSpans(lengths []int) []SpanShare {
	out := make([]SpanShare, len(lengths))
	for i, l := range lengths {
		var one, two, three, total int
		set := make(map[netaddr.Prefix]struct{}, 16)
		uc.users.each(func(_ uint64, u *userAddrs) {
			if u.v6.n == 0 {
				return
			}
			clear(set)
			for _, k := range uc.v6.keysOf(u.v6) {
				set[netaddr.PrefixFrom(k.addr(netaddr.IPv6), l)] = struct{}{}
			}
			total++
			switch n := len(set); {
			case n == 1:
				one++
				two++
				three++
			case n == 2:
				two++
				three++
			case n == 3:
				three++
			}
		})
		s := SpanShare{Length: l}
		if total > 0 {
			s.One = float64(one) / float64(total)
			s.AtMost2 = float64(two) / float64(total)
			s.AtMost3 = float64(three) / float64(total)
		}
		out[i] = s
	}
	return out
}

// PrefixesPerUser returns the histogram of distinct prefixes of the
// given length per IPv6 user (used by the outlier analyses in §5.2.3).
func (uc *UserCentric) PrefixesPerUser(length int) *stats.IntHist {
	h := stats.NewIntHist(64)
	set := make(map[netaddr.Prefix]struct{}, 16)
	uc.users.each(func(_ uint64, u *userAddrs) {
		if u.v6.n == 0 {
			return
		}
		clear(set)
		for _, k := range uc.v6.keysOf(u.v6) {
			set[netaddr.PrefixFrom(k.addr(netaddr.IPv6), length)] = struct{}{}
		}
		h.Add(len(set))
	})
	return h
}

// TopUser is a user ranked by address count.
type TopUser struct {
	UID   uint64
	Count int
}

// TopUsersByAddrs returns the k users with the most distinct addresses
// of the family, descending, ties in UID order.
func (uc *UserCentric) TopUsersByAddrs(fam netaddr.Family, k int) []TopUser {
	return topK(k, func(yield func(TopUser)) {
		uc.users.each(func(uid uint64, u *userAddrs) {
			if n := u.count(fam); n > 0 {
				yield(TopUser{UID: uid, Count: n})
			}
		})
	}, func(a, b TopUser) bool {
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.UID < b.UID
	})
}

// UsersWithMoreThan counts users with strictly more than n distinct
// addresses of the family.
func (uc *UserCentric) UsersWithMoreThan(fam netaddr.Family, n int) int {
	count := 0
	uc.users.each(func(_ uint64, u *userAddrs) {
		if u.count(fam) > n {
			count++
		}
	})
	return count
}

// ClientAddrPatterns summarizes §4.4: the share of IPv6 users seen on
// transition-protocol addresses and on EUI-64 (MAC-embedding) addresses,
// and among multi-address EUI-64 users, the share that reuse one IID.
type ClientAddrPatterns struct {
	V6Users         int
	TeredoShare     float64
	SixToFourShare  float64
	EUI64Share      float64
	EUI64IIDReuse   float64 // among EUI-64 users with >= 2 addresses
	StructuredShare float64
	RandomIIDShare  float64
}

// AddrPatterns computes the §4.4 summary over the observed window.
func (uc *UserCentric) AddrPatterns() ClientAddrPatterns {
	var p ClientAddrPatterns
	var teredo, sixToFour, eui, structured, random int
	var euiMulti, euiReuse int
	uc.users.each(func(_ uint64, u *userAddrs) {
		if u.v6.n == 0 {
			return
		}
		p.V6Users++
		var hasTeredo, has6to4, hasEUI, hasStruct, hasRandom bool
		iids := make(map[uint64]struct{}, 4)
		euiAddrs := 0
		for _, k := range uc.v6.keysOf(u.v6) {
			a := k.addr(netaddr.IPv6)
			switch netaddr.Classify(a) {
			case netaddr.KindTeredo:
				hasTeredo = true
			case netaddr.Kind6to4:
				has6to4 = true
			case netaddr.KindEUI64:
				hasEUI = true
				euiAddrs++
				iids[a.IID()] = struct{}{}
			case netaddr.KindStructuredIID:
				hasStruct = true
			default:
				hasRandom = true
			}
		}
		if hasTeredo {
			teredo++
		}
		if has6to4 {
			sixToFour++
		}
		if hasEUI {
			eui++
			if u.v6.n >= 2 && euiAddrs >= 2 {
				euiMulti++
				if len(iids) == 1 {
					euiReuse++
				}
			}
		}
		if hasStruct {
			structured++
		}
		if hasRandom {
			random++
		}
	})
	if p.V6Users > 0 {
		n := float64(p.V6Users)
		p.TeredoShare = float64(teredo) / n
		p.SixToFourShare = float64(sixToFour) / n
		p.EUI64Share = float64(eui) / n
		p.StructuredShare = float64(structured) / n
		p.RandomIIDShare = float64(random) / n
	}
	if euiMulti > 0 {
		p.EUI64IIDReuse = float64(euiReuse) / float64(euiMulti)
	}
	return p
}
