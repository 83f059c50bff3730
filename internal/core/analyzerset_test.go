package core

import (
	"fmt"
	"reflect"
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/rng"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// analysisStream builds a day-ordered synthetic stream exercising every
// analyzer: dual-stack users that rotate IIDs, move /64s within their
// /44, and occasionally switch networks, spread over ASNs and countries,
// with a sprinkling of abusive accounts.
func analysisStream() []telemetry.Observation {
	src := rng.New(4242)
	const users = 400
	countries := []string{"US", "DE", "JP", "BR", "IN"}
	var out []telemetry.Observation

	type state struct {
		region, subnet uint64
		iid            uint64
	}
	states := make([]state, users)
	for u := range states {
		states[u] = state{region: src.Uint64() % 8, subnet: src.Uint64() % 4, iid: src.Uint64()}
	}

	for day := simtime.Day(0); day <= 7; day++ {
		for u := 0; u < users; u++ {
			st := &states[u]
			// Churn: mostly IID rotation, sometimes subnet move, rarely a
			// network switch.
			switch r := src.Uint64() % 100; {
			case r < 5:
				st.region = src.Uint64() % 8
				st.subnet = src.Uint64() % 4
				st.iid = src.Uint64()
			case r < 25:
				st.subnet = src.Uint64() % 4
				st.iid = src.Uint64()
			case r < 70:
				st.iid = src.Uint64()
			}
			hi := 0x2001_0db8_0000_0000 | st.region<<20 | st.subnet
			o := telemetry.Observation{
				Day:      day,
				UserID:   uint64(u),
				Addr:     netaddr.AddrFrom6(hi, st.iid),
				ASN:      netmodel.ASN(100 + st.region),
				Requests: uint32(1 + src.Uint64()%20),
				Abusive:  u%11 == 0,
			}
			o.SetCountry(countries[u%len(countries)])
			out = append(out, o)
			// Dual stack: most users also show up over IPv4.
			if u%3 != 0 {
				o4 := o
				o4.Addr = netaddr.AddrFrom4(0xc0a8_0000 | uint32(u))
				o4.Requests = uint32(1 + src.Uint64()%10)
				out = append(out, o4)
			}
		}
	}
	return out
}

// fullAnalyzers is one of every analyzer registered on a fresh
// AnalyzerSet, with the primaries kept for querying.
type fullAnalyzers struct {
	set   *AnalyzerSet
	uc    *UserCentric
	ic    *IPCentric
	churn *ChurnAttribution
	life  *Lifespans
	prev  *Prevalence
}

// fullSet registers one of every analyzer on a fresh AnalyzerSet. Every
// default analyzer's accumulated state is a pure order-free fold (set
// union, min-day, OR/sum), which is what the fused analysis path relies
// on.
func fullSet(ref simtime.Day) fullAnalyzers {
	f := fullAnalyzers{set: NewAnalyzerSet()}
	f.uc = NewUserCentricFor(false)
	AddCommutativeAnalyzer(f.set, f.uc, func() *UserCentric { return NewUserCentricFor(false) }, (*UserCentric).Merge)
	f.ic = NewIPCentric(netaddr.IPv6, 64)
	AddCommutativeAnalyzer(f.set, f.ic, func() *IPCentric { return NewIPCentric(netaddr.IPv6, 64) }, (*IPCentric).Merge)
	f.churn = NewChurnAttribution(2)
	AddCommutativeAnalyzer(f.set, f.churn, func() *ChurnAttribution { return NewChurnAttribution(2) }, (*ChurnAttribution).Merge)
	f.life = NewLifespans(ref, 64, 128, 32)
	AddCommutativeAnalyzer(f.set, f.life, func() *Lifespans { return NewLifespans(ref, 64, 128, 32) }, (*Lifespans).Merge)
	f.prev = NewPrevalence()
	AddCommutativeAnalyzerFiltered(f.set, f.prev, NewPrevalence, (*Prevalence).Merge,
		func(o telemetry.Observation) bool { return !o.Abusive })
	return f
}

// sequentialFullSet feeds the whole stream to one fresh set's primaries.
func sequentialFullSet(stream []telemetry.Observation, ref simtime.Day) fullAnalyzers {
	f := fullSet(ref)
	for _, o := range stream {
		f.set.Observe(o)
	}
	return f
}

// assertEqual compares every analyzer's full query surface.
func (f fullAnalyzers) assertEqual(t *testing.T, want fullAnalyzers, label string) {
	t.Helper()
	if f.uc.Users() != want.uc.Users() {
		t.Fatalf("%s: UserCentric users %d, want %d", label, f.uc.Users(), want.uc.Users())
	}
	for _, fam := range []netaddr.Family{netaddr.IPv4, netaddr.IPv6} {
		if !reflect.DeepEqual(f.uc.AddrsPerUser(fam), want.uc.AddrsPerUser(fam)) {
			t.Fatalf("%s: AddrsPerUser(%v) differs", label, fam)
		}
	}
	if !reflect.DeepEqual(f.uc.PrefixSpans([]int{44, 64}), want.uc.PrefixSpans([]int{44, 64})) {
		t.Fatalf("%s: PrefixSpans differ", label)
	}
	if !reflect.DeepEqual(f.uc.TopUsersByAddrs(netaddr.IPv6, 10), want.uc.TopUsersByAddrs(netaddr.IPv6, 10)) {
		t.Fatalf("%s: TopUsersByAddrs differ", label)
	}
	if !reflect.DeepEqual(f.uc.AddrPatterns(), want.uc.AddrPatterns()) {
		t.Fatalf("%s: AddrPatterns differ", label)
	}

	if f.ic.Prefixes() != want.ic.Prefixes() {
		t.Fatalf("%s: IPCentric prefixes %d, want %d", label, f.ic.Prefixes(), want.ic.Prefixes())
	}
	if !reflect.DeepEqual(f.ic.UsersPerPrefix(), want.ic.UsersPerPrefix()) {
		t.Fatalf("%s: UsersPerPrefix differs", label)
	}
	if !reflect.DeepEqual(f.ic.TopPrefixes(5), want.ic.TopPrefixes(5)) {
		t.Fatalf("%s: TopPrefixes differ", label)
	}
	if !reflect.DeepEqual(f.ic.AbusivePerAbusivePrefix(), want.ic.AbusivePerAbusivePrefix()) {
		t.Fatalf("%s: AbusivePerAbusivePrefix differs", label)
	}

	if f.churn.Breakdown() != want.churn.Breakdown() {
		t.Fatalf("%s: churn %+v, want %+v", label, f.churn.Breakdown(), want.churn.Breakdown())
	}

	if f.life.Pairs() != want.life.Pairs() {
		t.Fatalf("%s: lifespan pairs %d, want %d", label, f.life.Pairs(), want.life.Pairs())
	}
	if !reflect.DeepEqual(f.life.AgeHist(netaddr.IPv6, 128), want.life.AgeHist(netaddr.IPv6, 128)) {
		t.Fatalf("%s: AgeHist differs", label)
	}
	if !reflect.DeepEqual(f.life.MedianAgePerUser(netaddr.IPv6, 64), want.life.MedianAgePerUser(netaddr.IPv6, 64)) {
		t.Fatalf("%s: MedianAgePerUser differs", label)
	}
	if !reflect.DeepEqual(f.life.FreshShares(netaddr.IPv6), want.life.FreshShares(netaddr.IPv6)) {
		t.Fatalf("%s: FreshShares differ", label)
	}

	if !reflect.DeepEqual(f.prev.Daily(), want.prev.Daily()) {
		t.Fatalf("%s: Daily differs", label)
	}
	if !reflect.DeepEqual(f.prev.TopASNs(1, 0, nil), want.prev.TopASNs(1, 0, nil)) {
		t.Fatalf("%s: TopASNs differ", label)
	}
	if !reflect.DeepEqual(f.prev.TopCountries(1, 0), want.prev.TopCountries(1, 0)) {
		t.Fatalf("%s: TopCountries differ", label)
	}
}

// TestFullSetCommutative is the core equality guarantee: for every
// analyzer, splitting the stream block-wise across any number of
// replicas — round-robin, so users straddle replicas, as the fused
// path's decode workers split it — and folding produces exactly the
// state a sequential feed produces.
func TestFullSetCommutative(t *testing.T) {
	stream := analysisStream()
	const ref = simtime.Day(7)
	const block = 512
	seq := sequentialFullSet(stream, ref)

	for _, workers := range []int{1, 3, 8} {
		f := fullSet(ref)
		replicas := make([]*Replica, workers)
		for w := range replicas {
			replicas[w] = f.set.NewReplica()
		}
		for i, o := range stream {
			replicas[i/block%workers].Observe(o)
		}
		f.set.Fold(replicas...)
		f.assertEqual(t, seq, fmt.Sprintf("block split, workers=%d", workers))
	}
}

// TestPipelineMatchesSequential checks the user-partitioned layout: each
// replica sees every record of its own users, in stream order, as a
// stage that routes records by user hash (or a user-range sharded
// generation) feeds it. Folding those replicas, in any order, must
// reproduce the sequential state exactly.
func TestPipelineMatchesSequential(t *testing.T) {
	stream := analysisStream()
	const ref = simtime.Day(7)
	seq := sequentialFullSet(stream, ref)

	for _, workers := range []int{1, 2, 5} {
		f := fullSet(ref)
		replicas := make([]*Replica, workers)
		for w := range replicas {
			replicas[w] = f.set.NewReplica()
		}
		for _, o := range stream {
			h := o.UserID * 0x9e3779b97f4a7c15 // Fibonacci hash spreads consecutive IDs
			replicas[(h>>32)%uint64(workers)].Observe(o)
		}
		// Fold last-to-first so the check does not lean on fold order.
		for w := workers - 1; w >= 0; w-- {
			f.set.Fold(replicas[w])
		}
		f.assertEqual(t, seq, fmt.Sprintf("user-routed, workers=%d", workers))
	}
}

// Merging two analyzers fed arbitrary (non-user-disjoint) splits must be
// exact for the set-algebraic analyzers.
func TestLifespanPrevalenceMergeArbitrarySplit(t *testing.T) {
	stream := analysisStream()
	const ref = simtime.Day(7)

	wantLife := NewLifespans(ref, 64, 128)
	wantPrev := NewPrevalence()
	for _, o := range stream {
		wantLife.Observe(o)
		wantPrev.Observe(o)
	}

	// Interleave records across two shards — users deliberately split.
	la, lb := NewLifespans(ref, 64, 128), NewLifespans(ref, 64, 128)
	pa, pb := NewPrevalence(), NewPrevalence()
	for i, o := range stream {
		if i%2 == 0 {
			la.Observe(o)
			pa.Observe(o)
		} else {
			lb.Observe(o)
			pb.Observe(o)
		}
	}
	la.Merge(lb)
	pa.Merge(pb)

	if la.Pairs() != wantLife.Pairs() {
		t.Fatalf("merged pairs %d, want %d", la.Pairs(), wantLife.Pairs())
	}
	if !reflect.DeepEqual(la.AgeHist(netaddr.IPv6, 128), wantLife.AgeHist(netaddr.IPv6, 128)) {
		t.Fatal("merged AgeHist differs")
	}
	if !reflect.DeepEqual(pa.Daily(), wantPrev.Daily()) {
		t.Fatal("merged Daily differs")
	}
	if !reflect.DeepEqual(pa.TopASNs(1, 0, nil), wantPrev.TopASNs(1, 0, nil)) {
		t.Fatal("merged TopASNs differ")
	}
	if !reflect.DeepEqual(pa.TopCountries(1, 0), wantPrev.TopCountries(1, 0)) {
		t.Fatal("merged TopCountries differ")
	}
}

// Churn merge is exact for user-disjoint splits (the sharded-generation split).
func TestChurnMergeUserDisjoint(t *testing.T) {
	stream := analysisStream()
	want := NewChurnAttribution(2)
	for _, o := range stream {
		want.Observe(o)
	}
	a, b := NewChurnAttribution(2), NewChurnAttribution(2)
	for _, o := range stream {
		if o.UserID%2 == 0 {
			a.Observe(o)
		} else {
			b.Observe(o)
		}
	}
	a.Merge(b)
	if a.Breakdown() != want.Breakdown() {
		t.Fatalf("merged %+v, want %+v", a.Breakdown(), want.Breakdown())
	}
}
