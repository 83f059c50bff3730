package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
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
	set        *AnalyzerSet
	uc         *UserCentric
	ic         *IPCentric // IPv6 /64
	ic4, ic128 *IPCentric
	churn      *ChurnAttribution
	life       *Lifespans
	prev       *Prevalence
}

// fullSet registers one of every analyzer on a fresh AnalyzerSet, with
// the parameters of the CLI analyze set plus lifespans and prevalence:
// the set the repository benchmark's digest queries. Every default
// analyzer's accumulated state is a pure order-free fold (set union,
// min-day, OR/sum), which is what the fused analysis path relies on.
func fullSet(ref simtime.Day) fullAnalyzers {
	f := fullAnalyzers{set: NewAnalyzerSet()}
	f.uc = NewUserCentricFor(false)
	AddCommutativeAnalyzer(f.set, f.uc, func() *UserCentric { return NewUserCentricFor(false) }, (*UserCentric).Merge)
	addIC := func(fam netaddr.Family, length int) *IPCentric {
		ic := NewIPCentric(fam, length)
		AddCommutativeAnalyzer(f.set, ic, func() *IPCentric { return NewIPCentric(fam, length) }, (*IPCentric).Merge)
		return ic
	}
	f.ic4 = addIC(netaddr.IPv4, 32)
	f.ic128 = addIC(netaddr.IPv6, 128)
	f.ic = addIC(netaddr.IPv6, 64)
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
	f.assertSurface(t, want, label, "")
}

// assertSurface compares the digestQueries answers whose names start
// with prefix: one analyzer's query surface, or all of them for "".
func (f fullAnalyzers) assertSurface(t *testing.T, want fullAnalyzers, label, prefix string) {
	t.Helper()
	pick := func(q map[string]any) map[string]any {
		for name := range q {
			if !strings.HasPrefix(name, prefix) {
				delete(q, name)
			}
		}
		return q
	}
	assertQueries(t, label, pick(digestQueries(f)), pick(digestQueries(want)))
}

// TestFullSetCommutative is the core equality guarantee: for every
// analyzer, splitting the stream block-wise across any number of
// replicas — round-robin, so users straddle replicas, as the fused
// path's decode workers split it — and folding produces exactly the
// state a sequential feed produces. The skewed split gives replica 0
// only the first tenth of the stream, and each split is folded forward
// and reversed, so Merge's swap-the-larger-state branch runs from both
// sides.
func TestFullSetCommutative(t *testing.T) {
	stream := analysisStream()
	const ref = simtime.Day(7)
	const block = 512
	seq := sequentialFullSet(stream, ref)

	splits := []struct {
		name  string
		owner func(i, workers int) int
	}{
		{"block", func(i, workers int) int { return i / block % workers }},
		{"skewed", func(i, workers int) int {
			if workers == 1 || i < len(stream)/10 {
				return 0
			}
			return 1 + i/block%(workers-1)
		}},
	}
	for _, split := range splits {
		for _, reversed := range []bool{false, true} {
			for _, workers := range []int{1, 3, 8} {
				f := fullSet(ref)
				replicas := make([]*Replica, workers)
				for w := range replicas {
					replicas[w] = f.set.NewReplica()
				}
				for i, o := range stream {
					replicas[split.owner(i, workers)].Observe(o)
				}
				if reversed {
					slices.Reverse(replicas)
				}
				f.set.Fold(replicas...)
				f.assertEqual(t, seq, fmt.Sprintf("%s split, reversed=%v, workers=%d", split.name, reversed, workers))
			}
		}
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
