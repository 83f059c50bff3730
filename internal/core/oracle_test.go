package core

// An independent reference for the default analyzers: every query the
// repository benchmark's digest asks, recomputed from the whole
// observation slice by sorting and grouping, straight from the paper's
// §5–6 definitions. It shares no code with the analyzers, so an
// analyzer bug (in Observe, in Merge, or in a query) cannot hide behind
// a reference that repeats it. Churn is checked against seqChurn, the
// order-dependent walk in churn_prop_test.go.

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"userv6/internal/abuse"
	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/rng"
	"userv6/internal/simtime"
	"userv6/internal/stats"
	"userv6/internal/telemetry"
)

// Oracle stream parameters: churn counts from oracleCountFrom (fullSet's
// churn warmup), and lifespans take oracleRef as the reference day, so
// the stream's last days fall after it.
const (
	oracleCountFrom = simtime.Day(2)
	oracleRef       = simtime.Day(7)
)

// oracleStream builds a user-major stream: each user's records back to
// back, day by day. Users rotate IIDs, move /64s within a /44 and
// switch networks; they carry random, EUI-64, gateway-style, Teredo or
// 6to4 addresses, and share IPv4 addresses and gateway addresses so
// prefixes have populations above one. Every seventh user is an
// abusive account (ID from abuse.AccountIDBase) active on several
// days. With heavy > 0, one benign user is seen on heavy distinct IPv6
// addresses spread over more /64s, ASNs and countries than a key list
// holds before it is indexed.
func oracleStream(seed uint64, users, days, heavy int) []telemetry.Observation {
	src := rng.New(seed)
	countries := []string{"US", "DE", "JP", "BR", "IN"}
	var out []telemetry.Observation
	for u := 0; u < users; u++ {
		uid, abusive := uint64(u), u%7 == 3
		if abusive {
			uid = abuse.AccountIDBase + uint64(u)
		}
		style := src.Intn(5)
		region, subnet := src.Uint64()%6, src.Uint64()%4
		mac := src.Uint64()&^(0xffff<<24) | 0xfffe<<24
		iid := src.Uint64()
		cc := countries[src.Intn(len(countries))]
		for day := 0; day < days; day++ {
			if src.Intn(4) == 0 {
				continue
			}
			for r := 1 + src.Intn(3); r > 0; r-- {
				switch x := src.Intn(100); {
				case x < 5:
					region, subnet = src.Uint64()%6, src.Uint64()%4
				case x < 25:
					subnet = src.Uint64() % 4
				}
				if src.Intn(100) < 50 {
					iid = src.Uint64()
				}
				hi := 0x2001_0db8_0000_0000 | region<<20 | subnet
				lo := iid
				switch style {
				case 1:
					lo = mac
				case 2:
					lo = 1 + src.Uint64()%8
				case 3:
					hi = 0x2001_0000_0000_0000 | region<<8 | subnet
				case 4:
					hi = 0x2002_0000_0000_0000 | region<<20 | subnet
				}
				o := telemetry.Observation{
					Day:      simtime.Day(day),
					UserID:   uid,
					Addr:     netaddr.AddrFrom6(hi, lo),
					ASN:      netmodel.ASN(100 + region),
					Requests: uint32(1 + src.Intn(20)),
					Abusive:  abusive,
				}
				o.SetCountry(cc)
				out = append(out, o)
				if u%3 != 0 {
					o.Addr = netaddr.AddrFrom4(0xc0a8_0000 | uint32(src.Intn(300)))
					o.Requests = uint32(1 + src.Intn(10))
					out = append(out, o)
				}
			}
		}
	}
	for i := 0; i < heavy; i++ {
		k := i % 41
		o := telemetry.Observation{
			Day:      simtime.Day(i % days),
			UserID:   uint64(users),
			Addr:     netaddr.AddrFrom6(0x2001_0db8_0000_0000|uint64(k%3)<<20|uint64(k), src.Uint64()),
			ASN:      netmodel.ASN(200 + k),
			Requests: 1,
		}
		o.SetCountry(string([]byte{'A' + byte(k/26), 'A' + byte(k%26)}))
		out = append(out, o)
		if i%25 == 0 {
			out = append(out, out[len(out)-1]) // a repeat sighting
			o.Addr = netaddr.AddrFrom4(0x0a00_0000 | uint32(i))
			out = append(out, o)
		}
	}
	return out
}

// digestQueries answers every query of the benchmark digest (plus
// TopPrefixes and /44 spans) from a fed fullSet, keyed by query name.
func digestQueries(f fullAnalyzers) map[string]any {
	q := map[string]any{"churn": f.churn.Breakdown()}
	userCentricQueries(q, f.uc)
	for name, ic := range map[string]*IPCentric{"ic4": f.ic4, "ic128": f.ic128, "ic64": f.ic} {
		ipCentricQueries(q, name, ic)
	}
	lifespanQueries(q, f.life, oracleLifeLengths)
	prevalenceQueries(q, f.prev)
	return q
}

// userCentricQueries adds uc's digest answers to q.
func userCentricQueries(q map[string]any, uc *UserCentric) {
	q["uc.users"] = uc.Users()
	q["uc.addrs.v4"] = uc.AddrsPerUser(netaddr.IPv4)
	q["uc.addrs.v6"] = uc.AddrsPerUser(netaddr.IPv6)
	q["uc.prefixes64"] = uc.PrefixesPerUser(64)
	q["uc.spans"] = uc.PrefixSpans(oracleSpanLengths)
	q["uc.patterns"] = uc.AddrPatterns()
	q["uc.top"] = uc.TopUsersByAddrs(netaddr.IPv6, 10)
}

// ipCentricQueries adds ic's digest answers to q, under name.
func ipCentricQueries(q map[string]any, name string, ic *IPCentric) {
	q[name+".prefixes"] = ic.Prefixes()
	q[name+".users"] = ic.UsersPerPrefix()
	q[name+".benign"] = ic.BenignPerPrefix()
	q[name+".abusive"] = ic.AbusivePerAbusivePrefix()
	q[name+".benign_in_abusive"] = ic.BenignPerAbusivePrefix()
	q[name+".top"] = ic.TopPrefixes(10)
}

// lifespanQueries adds life's digest answers to q, with the age
// histograms of each (family, length) in lengths.
func lifespanQueries(q map[string]any, life *Lifespans, lengths []famLength) {
	q["life.pairs"] = life.Pairs()
	q["life.fresh.v6"] = life.FreshShares(netaddr.IPv6)
	q["life.fresh.v4"] = life.FreshShares(netaddr.IPv4)
	for _, fl := range lengths {
		name := fmt.Sprintf("life.%v/%d", fl.fam, fl.length)
		q[name+".age"] = life.AgeHist(fl.fam, fl.length)
		q[name+".user_median_age"] = life.MedianAgePerUser(fl.fam, fl.length)
	}
}

// prevalenceQueries adds prev's digest answers to q.
func prevalenceQueries(q map[string]any, prev *Prevalence) {
	q["prev.daily"] = prev.Daily()
	q["prev.asns"] = prev.TopASNs(1, 0, nil)
	q["prev.countries"] = prev.TopCountries(1, 0)
	zero, underTen, total := prev.ASNShareBands(1)
	q["prev.bands"] = [3]any{zero, underTen, total}
}

// famLength is one (family, prefix length) pair.
type famLength struct {
	fam    netaddr.Family
	length int
}

var (
	oracleSpanLengths = []int{32, 44, 48, 56, 64, 128}
	oracleLifeLengths = []famLength{{netaddr.IPv6, 64}, {netaddr.IPv6, 128}, {netaddr.IPv4, 32}}
)

// oraclePair is one (user, key) pair with the days it was seen on.
type oraclePair struct {
	uid     uint64
	key     netaddr.Addr
	abusive bool
	days    []simtime.Day
}

// groupPairs sorts the sightings key selects by (user, key, day) and
// groups them into pairs, in that order.
func groupPairs(stream []telemetry.Observation, key func(o telemetry.Observation) (netaddr.Addr, bool)) []oraclePair {
	type sighting struct {
		uid     uint64
		key     netaddr.Addr
		day     simtime.Day
		abusive bool
	}
	var s []sighting
	for _, o := range stream {
		if k, ok := key(o); ok {
			s = append(s, sighting{o.UserID, k, o.Day, o.Abusive})
		}
	}
	sort.Slice(s, func(i, j int) bool {
		if s[i].uid != s[j].uid {
			return s[i].uid < s[j].uid
		}
		if c := s[i].key.Compare(s[j].key); c != 0 {
			return c < 0
		}
		return s[i].day < s[j].day
	})
	var out []oraclePair
	for _, x := range s {
		if n := len(out); n > 0 && out[n-1].uid == x.uid && out[n-1].key == x.key {
			out[n-1].days = append(out[n-1].days, x.day)
			continue
		}
		out = append(out, oraclePair{uid: x.uid, key: x.key, abusive: x.abusive, days: []simtime.Day{x.day}})
	}
	return out
}

// byUser splits (user, key)-sorted pairs into one run per user.
func byUser(pairs []oraclePair) [][]oraclePair {
	var out [][]oraclePair
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j].uid == pairs[i].uid {
			j++
		}
		out = append(out, pairs[i:j])
		i = j
	}
	return out
}

func share(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// oracleQueries answers digestQueries' queries from the stream alone.
func oracleQueries(stream []telemetry.Observation) map[string]any {
	q := map[string]any{}
	oracleUserCentric(q, stream)
	oracleIPCentric(q, "ic4", stream, netaddr.IPv4, 32)
	oracleIPCentric(q, "ic128", stream, netaddr.IPv6, 128)
	oracleIPCentric(q, "ic64", stream, netaddr.IPv6, 64)
	oracleLifespans(q, stream)
	oraclePrevalence(q, stream)

	byDay := slices.Clone(stream)
	sort.SliceStable(byDay, func(i, j int) bool { return byDay[i].Day < byDay[j].Day })
	walk := newSeqChurn(oracleCountFrom)
	for _, o := range byDay {
		walk.Observe(o)
	}
	q["churn"] = walk.breakdown()
	return q
}

// oracleUserCentric: §5.1–5.2 over benign users — each user's distinct
// IPv4 and IPv6 addresses, and the prefixes those IPv6 addresses span.
func oracleUserCentric(q map[string]any, stream []telemetry.Observation) {
	users := byUser(groupPairs(stream, func(o telemetry.Observation) (netaddr.Addr, bool) {
		return o.Addr, !o.Abusive && o.Addr.IsValid()
	}))
	q["uc.users"] = len(users)
	v6Of := func(pairs []oraclePair) []netaddr.Addr {
		var v6 []netaddr.Addr
		for _, p := range pairs {
			if p.key.Is6() {
				v6 = append(v6, p.key)
			}
		}
		return v6
	}
	distinctPrefixes := func(addrs []netaddr.Addr, length int) int {
		set := map[netaddr.Prefix]bool{}
		for _, a := range addrs {
			set[netaddr.PrefixFrom(a, length)] = true
		}
		return len(set)
	}

	for name, fam := range map[string]netaddr.Family{"uc.addrs.v4": netaddr.IPv4, "uc.addrs.v6": netaddr.IPv6} {
		h := stats.NewIntHist(64)
		for _, pairs := range users {
			n := 0
			for _, p := range pairs {
				if p.key.Family() == fam {
					n++
				}
			}
			if n > 0 {
				h.Add(n)
			}
		}
		q[name] = h
	}

	prefixes64 := stats.NewIntHist(64)
	tops := []TopUser{}
	var patterns ClientAddrPatterns
	var teredo, sixToFour, eui, structured, random, euiMulti, euiReuse int
	for _, pairs := range users {
		v6 := v6Of(pairs)
		if len(v6) == 0 {
			continue
		}
		prefixes64.Add(distinctPrefixes(v6, 64))
		tops = append(tops, TopUser{UID: pairs[0].uid, Count: len(v6)})
		patterns.V6Users++
		kinds := map[netaddr.AddrKind]int{}
		iids := map[uint64]bool{}
		for _, a := range v6 {
			k := netaddr.Classify(a)
			kinds[k]++
			if k == netaddr.KindEUI64 {
				iids[a.IID()] = true
			}
		}
		for k, hit := range map[netaddr.AddrKind]*int{netaddr.KindTeredo: &teredo, netaddr.Kind6to4: &sixToFour, netaddr.KindEUI64: &eui, netaddr.KindStructuredIID: &structured} {
			if kinds[k] > 0 {
				*hit++
			}
		}
		if kinds[netaddr.KindOther]+kinds[netaddr.KindRandomIID] > 0 {
			random++
		}
		if kinds[netaddr.KindEUI64] >= 2 {
			euiMulti++
			if len(iids) == 1 {
				euiReuse++
			}
		}
	}
	q["uc.prefixes64"] = prefixes64

	spans := make([]SpanShare, len(oracleSpanLengths))
	for i, l := range oracleSpanLengths {
		var one, two, three, total int
		for _, pairs := range users {
			v6 := v6Of(pairs)
			if len(v6) == 0 {
				continue
			}
			total++
			n := distinctPrefixes(v6, l)
			if n <= 1 {
				one++
			}
			if n <= 2 {
				two++
			}
			if n <= 3 {
				three++
			}
		}
		spans[i] = SpanShare{Length: l, One: share(one, total), AtMost2: share(two, total), AtMost3: share(three, total)}
	}
	q["uc.spans"] = spans

	sort.Slice(tops, func(i, j int) bool {
		if tops[i].Count != tops[j].Count {
			return tops[i].Count > tops[j].Count
		}
		return tops[i].UID < tops[j].UID
	})
	q["uc.top"] = tops[:min(10, len(tops))]

	n := patterns.V6Users
	patterns.TeredoShare = share(teredo, n)
	patterns.SixToFourShare = share(sixToFour, n)
	patterns.EUI64Share = share(eui, n)
	patterns.StructuredShare = share(structured, n)
	patterns.RandomIIDShare = share(random, n)
	patterns.EUI64IIDReuse = share(euiReuse, euiMulti)
	q["uc.patterns"] = patterns
}

// oracleIPCentric: §6 — each prefix's population of distinct benign
// users and abusive accounts.
func oracleIPCentric(q map[string]any, name string, stream []telemetry.Observation, fam netaddr.Family, length int) {
	pairs := groupPairs(stream, func(o telemetry.Observation) (netaddr.Addr, bool) {
		return netaddr.PrefixFrom(o.Addr, length).Addr(), o.Addr.Family() == fam && length <= o.Addr.Bits()
	})
	pops := map[netaddr.Addr]*[2]int{} // [benign, abusive]
	for _, p := range pairs {
		pop := pops[p.key]
		if pop == nil {
			pop = new([2]int)
			pops[p.key] = pop
		}
		if p.abusive {
			pop[1]++
		} else {
			pop[0]++
		}
	}
	// Walk prefixes in address order; the histograms do not depend on it.
	keys := make([]netaddr.Addr, 0, len(pops))
	for k := range pops {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, netaddr.Addr.Compare)
	usersH, benignH := stats.NewIntHist(256), stats.NewIntHist(256)
	abusiveH, benignInAbusiveH := stats.NewIntHist(64), stats.NewIntHist(256)
	tops := []HeavyPrefix{}
	for _, k := range keys {
		pop := pops[k]
		usersH.Add(pop[0] + pop[1])
		benignH.Add(pop[0])
		if pop[1] > 0 {
			abusiveH.Add(pop[1])
			benignInAbusiveH.Add(pop[0])
		}
		tops = append(tops, HeavyPrefix{Prefix: netaddr.PrefixFrom(k, length), Users: pop[0] + pop[1], Abusive: pop[1]})
	}
	sort.SliceStable(tops, func(i, j int) bool { return tops[i].Users > tops[j].Users })
	q[name+".prefixes"] = len(pops)
	q[name+".users"] = usersH
	q[name+".benign"] = benignH
	q[name+".abusive"] = abusiveH
	q[name+".benign_in_abusive"] = benignInAbusiveH
	q[name+".top"] = tops[:min(10, len(tops))]
}

// oracleLifespans: §5.3 — each (user, prefix) pair's first day up to the
// reference day, and whether it was seen on the reference day.
func oracleLifespans(q map[string]any, stream []telemetry.Observation) {
	lengths := []int{64, 128, 32}
	pairsAt := map[int][]oraclePair{}
	total := 0
	for _, length := range lengths {
		pairsAt[length] = groupPairs(stream, func(o telemetry.Observation) (netaddr.Addr, bool) {
			return netaddr.PrefixFrom(o.Addr, length).Addr(), o.Day <= oracleRef && o.Addr.IsValid() && length <= o.Addr.Bits()
		})
		total += len(pairsAt[length])
	}
	q["life.pairs"] = total

	// ages returns, per user, the ages of the pairs seen on the
	// reference day (days since first seen).
	ages := func(fam netaddr.Family, length int) [][]int {
		var out [][]int
		for _, pairs := range byUser(pairsAt[length]) {
			var a []int
			for _, p := range pairs {
				if p.key.Family() == fam && slices.Contains(p.days, oracleRef) {
					a = append(a, int(oracleRef-p.days[0]))
				}
			}
			if len(a) > 0 {
				out = append(out, a)
			}
		}
		return out
	}
	for _, fl := range oracleLifeLengths {
		name := fmt.Sprintf("life.%v/%d", fl.fam, fl.length)
		all, medians := stats.NewIntHist(64), stats.NewIntHist(64)
		for _, a := range ages(fl.fam, fl.length) {
			for _, x := range a {
				all.Add(x)
			}
			slices.Sort(a)
			medians.Add(a[(len(a)-1)/2])
		}
		q[name+".age"] = all
		q[name+".user_median_age"] = medians
	}
	for name, fam := range map[string]netaddr.Family{"life.fresh.v4": netaddr.IPv4, "life.fresh.v6": netaddr.IPv6} {
		out := []FreshShare{}
		for _, length := range lengths {
			var n, w1, w2, w3 int
			for _, a := range ages(fam, length) {
				for _, x := range a {
					n++
					if x < 1 {
						w1++
					}
					if x < 2 {
						w2++
					}
					if x < 3 {
						w3++
					}
				}
			}
			if n > 0 {
				out = append(out, FreshShare{Length: length, Pairs: n, Within1: share(w1, n), Within2: share(w2, n), Within3: share(w3, n)})
			}
		}
		q[name] = out
	}
}

// oraclePrevalence: §4 over benign users — per day the users and
// requests over IPv6, and per ASN and country the users ever seen there
// and those seen there over IPv6.
func oraclePrevalence(q map[string]any, stream []telemetry.Observation) {
	// A population maps each user to whether it was seen over IPv6.
	dayUsers := map[simtime.Day]map[uint64]bool{}
	asnUsers := map[netmodel.ASN]map[uint64]bool{}
	ccUsers := map[string]map[uint64]bool{}
	requests := map[simtime.Day]*[2]uint64{} // [all, v6]
	for _, o := range stream {
		if o.Abusive {
			continue
		}
		v6 := o.Addr.Is6()
		for _, p := range []map[uint64]bool{
			population(dayUsers, o.Day), population(asnUsers, o.ASN), population(ccUsers, o.CountryCode()),
		} {
			p[o.UserID] = p[o.UserID] || v6
		}
		r := requests[o.Day]
		if r == nil {
			r = new([2]uint64)
			requests[o.Day] = r
		}
		r[0] += uint64(o.Requests)
		if v6 {
			r[1] += uint64(o.Requests)
		}
	}
	count := func(p map[uint64]bool) (users, v6 int) {
		for _, isV6 := range p {
			users++
			if isV6 {
				v6++
			}
		}
		return users, v6
	}

	daily := []DayShare{}
	for day, p := range dayUsers {
		users, v6 := count(p)
		r := requests[day]
		daily = append(daily, DayShare{Day: day, Users: users, V6Users: v6, UserShare: share(v6, users),
			Requests: r[0], V6Requests: r[1], ReqShare: float64(r[1]) / float64(r[0])})
	}
	sort.Slice(daily, func(i, j int) bool { return daily[i].Day < daily[j].Day })
	q["prev.daily"] = daily

	asns := []RatioRow{}
	var zero, underTen int
	for asn, p := range asnUsers {
		users, v6 := count(p)
		ratio := float64(v6) / float64(users)
		asns = append(asns, RatioRow{ASN: asn, Users: users, Ratio: ratio})
		switch {
		case v6 == 0:
			zero++
		case ratio < 0.10:
			underTen++
		}
	}
	sort.Slice(asns, func(i, j int) bool {
		if asns[i].Ratio != asns[j].Ratio {
			return asns[i].Ratio > asns[j].Ratio
		}
		return asns[i].ASN < asns[j].ASN
	})
	q["prev.asns"] = asns
	q["prev.bands"] = [3]any{share(zero, len(asns)), share(underTen, len(asns)), len(asns)}

	ccs := []RatioRow{}
	for cc, p := range ccUsers {
		users, v6 := count(p)
		ccs = append(ccs, RatioRow{Country: cc, Users: users, Ratio: float64(v6) / float64(users)})
	}
	sort.Slice(ccs, func(i, j int) bool {
		if ccs[i].Ratio != ccs[j].Ratio {
			return ccs[i].Ratio > ccs[j].Ratio
		}
		return ccs[i].Country < ccs[j].Country
	})
	q["prev.countries"] = ccs
}

// population returns k's population in m, creating it if absent.
func population[K comparable](m map[K]map[uint64]bool, k K) map[uint64]bool {
	p := m[k]
	if p == nil {
		p = map[uint64]bool{}
		m[k] = p
	}
	return p
}

// assertQueries fails on the first query whose answer differs.
func assertQueries(t *testing.T, label string, got, want map[string]any) {
	t.Helper()
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	slices.Sort(names)
	if len(got) != len(want) {
		t.Fatalf("%s: %d queries answered, oracle answers %d", label, len(got), len(want))
	}
	for _, name := range names {
		if !reflect.DeepEqual(got[name], want[name]) {
			t.Fatalf("%s: %s = %+v, want %+v", label, name, got[name], want[name])
		}
	}
}

// feedOracleSet feeds stream to a fresh fullSet: sequentially when
// replicas is 0, otherwise split block-wise (block b to replica b mod
// replicas, so users straddle replicas) and folded, in replica order or
// reversed.
func feedOracleSet(stream []telemetry.Observation, replicas, block int, reversed bool) fullAnalyzers {
	f := fullSet(oracleRef)
	if replicas == 0 {
		for _, o := range stream {
			f.set.Observe(o)
		}
		return f
	}
	reps := make([]*Replica, replicas)
	for i := range reps {
		reps[i] = f.set.NewReplica()
	}
	for i, o := range stream {
		reps[i/block%replicas].Observe(o)
	}
	if reversed {
		slices.Reverse(reps)
	}
	f.set.Fold(reps...)
	return f
}

// TestAnalyzersMatchOracle checks the default analyzers' whole digest
// query surface against the oracle, on randomized streams fed in user
// order (consecutive records of one user: the user table's cache path)
// and shuffled, sequentially and split block-wise across 1, 3 and 8
// replicas folded forward and reversed. One user holds over 1,000
// addresses, so indexed key lists are observed and merged too.
func TestAnalyzersMatchOracle(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		stream := oracleStream(seed, 250, 10, 1200)
		want := oracleQueries(stream)
		orders := map[string][]telemetry.Observation{
			"user-major": stream,
			"shuffled":   shuffled(rng.New(seed*31), stream),
		}
		for order, recs := range orders {
			label := fmt.Sprintf("seed %d, %s", seed, order)
			assertQueries(t, label+", sequential", digestQueries(feedOracleSet(recs, 0, 0, false)), want)
			for _, replicas := range []int{1, 3, 8} {
				for _, reversed := range []bool{false, true} {
					f := feedOracleSet(recs, replicas, 97, reversed)
					assertQueries(t, fmt.Sprintf("%s, %d replicas, reversed=%v", label, replicas, reversed), digestQueries(f), want)
				}
			}
		}
	}
}

// FuzzAnalyzerOracle turns the fuzz input into a stream seed and shape,
// an order and a replica split; every digest query must equal the
// oracle's answer.
func FuzzAnalyzerOracle(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(0), uint8(0), uint16(16))
	f.Add(uint64(2), uint8(40), uint8(1), uint8(3), uint16(7))
	f.Add(uint64(3), uint8(9), uint8(2), uint8(8), uint16(1))
	f.Fuzz(func(t *testing.T, seed uint64, users, shape, replicas uint8, block uint16) {
		heavy := 0
		if shape&2 != 0 {
			heavy = 80
		}
		stream := oracleStream(seed, int(users%48), 1+int(shape>>2)%10, heavy)
		want := oracleQueries(stream)
		if shape&1 != 0 {
			stream = shuffled(rng.New(seed), stream)
		}
		got := feedOracleSet(stream, int(replicas%9), 1+int(block)%128, shape&4 != 0)
		assertQueries(t, fmt.Sprintf("seed %d", seed), digestQueries(got), want)
	})
}
