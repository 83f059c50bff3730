package core

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/rng"
	"userv6/internal/simtime"
	"userv6/internal/stats"
	"userv6/internal/telemetry"
)

// buildActioning creates a small two-day scenario:
//
//	day n:   addr A: 1 AA (pure); addr B: 1 AA + 9 benign (ratio 0.1);
//	         addr C: benign only.
//	day n+1: AA 100 returns to A; AA 101 appears on B; AA 102 appears on
//	         a brand-new addr D; benign 1 on B, benign 2 on C, benign 3
//	         on D.
func buildActioning() *Actioning {
	ac := NewActioning(netaddr.IPv4, 32, 0, 1)
	ac.Observe(obs(100, "10.0.0.1", 0, true))
	ac.Observe(obs(101, "10.0.0.2", 0, true))
	for u := uint64(1); u <= 9; u++ {
		ac.Observe(obs(u, "10.0.0.2", 0, false))
	}
	ac.Observe(obs(10, "10.0.0.3", 0, false))

	ac.Observe(obs(100, "10.0.0.1", 1, true))
	ac.Observe(obs(101, "10.0.0.2", 1, true))
	ac.Observe(obs(102, "10.0.0.4", 1, true))
	ac.Observe(obs(1, "10.0.0.2", 1, false))
	ac.Observe(obs(2, "10.0.0.3", 1, false))
	ac.Observe(obs(3, "10.0.0.4", 1, false))
	return ac
}

func TestActioningThresholds(t *testing.T) {
	ac := buildActioning()
	if ac.DayNPrefixes() != 3 {
		t.Fatalf("dayN prefixes = %d", ac.DayNPrefixes())
	}
	if b, a := ac.DayN1Entities(); b != 3 || a != 3 {
		t.Fatalf("dayN1 entities = %d benign, %d abusive", b, a)
	}

	// Threshold 0 ("any abusive presence"): addrs A (ratio 1) and B
	// (0.1) actioned. AAs 100, 101 caught; 102 missed. Benign 1 hit.
	c := ac.Counts(0)
	if c.TP != 2 || c.FN != 1 || c.FP != 1 || c.TN != 2 {
		t.Fatalf("t=0 counts = %+v", c)
	}
	if got := c.TPR(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("t=0 TPR = %v", got)
	}
	if got := c.FPR(); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("t=0 FPR = %v", got)
	}

	// Threshold 0.5: only pure addr A actioned.
	c = ac.Counts(0.5)
	if c.TP != 1 || c.FP != 0 {
		t.Fatalf("t=0.5 counts = %+v", c)
	}

	// Threshold 1.0: same here (A is ratio 1).
	c = ac.Counts(1.0)
	if c.TP != 1 || c.FP != 0 {
		t.Fatalf("t=1 counts = %+v", c)
	}
}

func TestActioningPrefixGranularity(t *testing.T) {
	ac := NewActioning(netaddr.IPv6, 64, 0, 1)
	// Day n: AA on one address of a /64.
	ac.Observe(obs(100, "2001:db8:0:1::a", 0, true))
	// Day n+1: a different AA on a different address, same /64.
	ac.Observe(obs(101, "2001:db8:0:1::b", 1, true))
	// And one on another /64: missed.
	ac.Observe(obs(102, "2001:db8:0:2::c", 1, true))
	c := ac.Counts(0)
	if c.TP != 1 || c.FN != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestActioningZeroRatioNotActioned(t *testing.T) {
	ac := NewActioning(netaddr.IPv4, 32, 0, 1)
	ac.Observe(obs(1, "10.0.0.1", 0, false)) // benign-only prefix
	ac.Observe(obs(2, "10.0.0.1", 1, false))
	c := ac.Counts(0)
	if c.FP != 0 || c.TN != 1 {
		t.Fatalf("benign-only prefix actioned: %+v", c)
	}
}

func TestActioningCurve(t *testing.T) {
	ac := buildActioning()
	roc := ac.Curve(DefaultThresholds())
	if len(roc.Points) != len(DefaultThresholds()) {
		t.Fatalf("points = %d", len(roc.Points))
	}
	// TPR at the loosest threshold must be the max.
	loosest, _ := roc.At(0)
	for _, p := range roc.Points {
		if p.TPR > loosest.TPR {
			t.Fatalf("threshold %v TPR %v exceeds t=0", p.Threshold, p.TPR)
		}
	}
	if auc := roc.AUC(); auc <= 0 || auc > 1 {
		t.Fatalf("AUC = %v", auc)
	}
}

func TestActioningDedup(t *testing.T) {
	ac := NewActioning(netaddr.IPv4, 32, 0, 1)
	for i := 0; i < 5; i++ {
		ac.Observe(obs(100, "10.0.0.1", 0, true))
		ac.Observe(obs(100, "10.0.0.1", 1, true))
	}
	c := ac.Counts(0)
	if c.TP != 1 {
		t.Fatalf("dedup failed: %+v", c)
	}
}

// TestActioningAbusiveOnAnySighting: a pair is abusive when any of its
// sightings was, whether both sightings reach one simulator or two
// folded with Merge in either order.
func TestActioningAbusiveOnAnySighting(t *testing.T) {
	benign, abusive := obs(5, "10.0.0.1", 1, false), obs(5, "10.0.0.1", 1, true)
	one := NewActioning(netaddr.IPv4, 32, 0, 1)
	one.Observe(abusive)
	one.Observe(benign)
	feeds := map[string]*Actioning{"one simulator": one}
	for _, order := range [][2]telemetry.Observation{{benign, abusive}, {abusive, benign}} {
		into, from := NewActioning(netaddr.IPv4, 32, 0, 1), NewActioning(netaddr.IPv4, 32, 0, 1)
		into.Observe(order[0])
		from.Observe(order[1])
		into.Merge(from)
		feeds[fmt.Sprintf("merged, abusive=%v into abusive=%v", order[1].Abusive, order[0].Abusive)] = into
	}
	for label, ac := range feeds {
		if b, a := ac.DayN1Entities(); b != 0 || a != 1 {
			t.Errorf("%s: day-To entities %d benign, %d abusive; want the one abusive", label, b, a)
		}
	}
}

// twoPhaseActioning is the reference for Actioning: the two-phase
// simulator it replaced, kept verbatim. Day-n observations go through
// ObserveDayN, all of them before any day-n+1 observation goes through
// ObserveDayN1, which reads each prefix's day-n ratio as it arrives.
type twoPhaseActioning struct {
	Family netaddr.Family
	Length int

	seenN map[pairKey]struct{}
	dayN  map[netaddr.Prefix]*prefixPop
	// Day n+1: per-entity best (max) day-n ratio across the prefixes
	// the entity appears on; -1 means none of its prefixes existed on
	// day n.
	seenN1    map[pairKey]struct{}
	benignN1  map[uint64]float64
	abusiveN1 map[uint64]float64
}

func newTwoPhaseActioning(fam netaddr.Family, length int) *twoPhaseActioning {
	return &twoPhaseActioning{
		Family:    fam,
		Length:    length,
		seenN:     make(map[pairKey]struct{}),
		dayN:      make(map[netaddr.Prefix]*prefixPop),
		seenN1:    make(map[pairKey]struct{}),
		benignN1:  make(map[uint64]float64),
		abusiveN1: make(map[uint64]float64),
	}
}

func (ac *twoPhaseActioning) ObserveDayN(o telemetry.Observation) {
	if o.Addr.Family() != ac.Family || ac.Length > o.Addr.Bits() {
		return
	}
	p := netaddr.PrefixFrom(o.Addr, ac.Length)
	key := pairKey{uid: o.UserID, pfx: p}
	if _, dup := ac.seenN[key]; dup {
		return
	}
	ac.seenN[key] = struct{}{}
	pop := ac.dayN[p]
	if pop == nil {
		pop = &prefixPop{}
		ac.dayN[p] = pop
	}
	if o.Abusive {
		pop.abusive++
	} else {
		pop.benign++
	}
}

func (ac *twoPhaseActioning) ObserveDayN1(o telemetry.Observation) {
	if o.Addr.Family() != ac.Family || ac.Length > o.Addr.Bits() {
		return
	}
	p := netaddr.PrefixFrom(o.Addr, ac.Length)
	key := pairKey{uid: o.UserID, pfx: p}
	if _, dup := ac.seenN1[key]; dup {
		return
	}
	ac.seenN1[key] = struct{}{}

	ratio := -1.0
	if pop := ac.dayN[p]; pop != nil && pop.abusive > 0 {
		ratio = float64(pop.abusive) / float64(pop.abusive+pop.benign)
	} else if pop != nil {
		ratio = 0
	}
	m := ac.benignN1
	if o.Abusive {
		m = ac.abusiveN1
	}
	if prev, ok := m[o.UserID]; !ok || ratio > prev {
		m[o.UserID] = ratio
	}
}

func (ac *twoPhaseActioning) Counts(threshold float64) stats.BinaryCounts {
	var c stats.BinaryCounts
	t := threshold
	if t <= 0 {
		t = math.SmallestNonzeroFloat64
	}
	for _, r := range ac.abusiveN1 {
		if r >= t {
			c.TP++
		} else {
			c.FN++
		}
	}
	for _, r := range ac.benignN1 {
		if r >= t {
			c.FP++
		} else {
			c.TN++
		}
	}
	return c
}

func (ac *twoPhaseActioning) Curve(thresholds []float64) *stats.ROC {
	pts := make([]stats.ROCPoint, 0, len(thresholds))
	for _, t := range thresholds {
		counts := ac.Counts(t)
		pts = append(pts, stats.ROCPoint{Threshold: t, TPR: counts.TPR(), FPR: counts.FPR()})
	}
	return stats.NewROC(pts)
}

// feedActioning feeds stream to a fresh Actioning over days [0, to]:
// directly when replicas is 0, otherwise split block-wise (block b to
// replica b mod replicas, so entities straddle replicas) and folded
// with Merge, in replica order or reversed.
func feedActioning(fam netaddr.Family, length int, to simtime.Day, stream []telemetry.Observation, replicas int, reversed bool) *Actioning {
	ac := NewActioning(fam, length, 0, to)
	if replicas == 0 {
		for _, o := range stream {
			ac.Observe(o)
		}
		return ac
	}
	reps := make([]*Actioning, replicas)
	for i := range reps {
		reps[i] = NewActioning(fam, length, 0, to)
	}
	for i, o := range stream {
		reps[i/53%replicas].Observe(o)
	}
	if reversed {
		slices.Reverse(reps)
	}
	for _, r := range reps {
		ac.Merge(r)
	}
	return ac
}

// TestActioningCommutativeFold: Actioning is a commutative fold. On
// randomized two-day streams (shared IPv4 addresses, IPv6 users that
// rotate IIDs and move subnets, abusive accounts beside benign users),
// the one-Observe simulator fed in stream order, shuffled, and split
// across 1, 3 and 8 replicas folded with Merge (forward and reversed)
// must give the reference two-phase feed's Counts at every
// DefaultThresholds value, its Curve and its population sizes.
func TestActioningCommutativeFold(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		stream := oracleStream(seed, 400, 2, 0)
		orders := map[string][]telemetry.Observation{
			"stream order": stream,
			"shuffled":     shuffled(rng.New(seed*17), stream),
		}
		for _, g := range actioningGranularities {
			ref := newTwoPhaseActioning(g.fam, g.length)
			for _, o := range stream {
				if o.Day == 0 {
					ref.ObserveDayN(o)
				}
			}
			for _, o := range stream {
				if o.Day == 1 {
					ref.ObserveDayN1(o)
				}
			}
			if c := ref.Counts(0); c.TP == 0 || c.FN+c.TN == 0 {
				t.Fatalf("seed %d, /%d: degenerate reference counts %+v", seed, g.length, c)
			}
			for order, recs := range orders {
				check := func(label string, ac *Actioning) {
					t.Helper()
					label = fmt.Sprintf("seed %d, %v /%d, %s, %s", seed, g.fam, g.length, order, label)
					for _, th := range DefaultThresholds() {
						if got, want := ac.Counts(th), ref.Counts(th); got != want {
							t.Fatalf("%s: Counts(%v) = %+v, want %+v", label, th, got, want)
						}
					}
					if got, want := ac.Curve(DefaultThresholds()), ref.Curve(DefaultThresholds()); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Curve = %+v, want %+v", label, got, want)
					}
					if got, want := ac.DayNPrefixes(), len(ref.dayN); got != want {
						t.Fatalf("%s: DayNPrefixes = %d, want %d", label, got, want)
					}
					b, a := ac.DayN1Entities()
					if b != len(ref.benignN1) || a != len(ref.abusiveN1) {
						t.Fatalf("%s: DayN1Entities = %d, %d, want %d, %d", label, b, a, len(ref.benignN1), len(ref.abusiveN1))
					}
				}
				forEachActioningFeed(g, 1, recs, check)
			}
		}
	}
}

// actioningGranularities are the (family, length) pairs the Actioning
// differentials check.
var actioningGranularities = []famLength{
	{netaddr.IPv6, 128}, {netaddr.IPv6, 64}, {netaddr.IPv6, 56},
	{netaddr.IPv6, 48}, {netaddr.IPv6, 44}, {netaddr.IPv4, 32},
}

// forEachActioningFeed feeds recs to an Actioning over days [0, to] at
// granularity g sequentially and split across 1, 3 and 8 replicas
// folded forward and reversed, and hands each to check.
func forEachActioningFeed(g famLength, to simtime.Day, recs []telemetry.Observation, check func(label string, ac *Actioning)) {
	check("sequential", feedActioning(g.fam, g.length, to, recs, 0, false))
	for _, replicas := range []int{1, 3, 8} {
		for _, reversed := range []bool{false, true} {
			check(fmt.Sprintf("%d replicas, reversed=%v", replicas, reversed),
				feedActioning(g.fam, g.length, to, recs, replicas, reversed))
		}
	}
}

// TestActioningMatchesReferenceSims: Actioning's Blocklist and
// RateLimit queries answer as the simulators they replaced. On 7-day
// oracle streams, BlocklistSim is fed day by day and RateLimitSim
// benign users by ID, then abusive accounts by ID, the order a
// generated stream delivers them in. Actioning is fed in stream order,
// shuffled, and split across 1, 3 and 8 replicas folded forward and
// reversed, and must give the references' counts, list sizes and
// outcomes at every threshold, TTL and cap.
func TestActioningMatchesReferenceSims(t *testing.T) {
	const days = 7
	thresholds, ttls, caps := []float64{0, 0.1, 0.5, 1}, []int{1, 3}, []int{1, 2, 3, 10}
	type policy struct {
		threshold float64
		ttl       int
	}
	type listed struct {
		counts stats.BinaryCounts
		size   int
	}
	var caught, hitBenign, throttled uint64
	for _, seed := range []uint64{1, 2} {
		stream := oracleStream(seed, 300, days, 0)
		byEntity := slices.Clone(stream)
		slices.SortStableFunc(byEntity, func(a, b telemetry.Observation) int {
			return cmp.Or(boolIndex(a.Abusive)-boolIndex(b.Abusive), cmp.Compare(a.UserID, b.UserID))
		})
		orders := map[string][]telemetry.Observation{
			"stream order": stream,
			"shuffled":     shuffled(rng.New(seed*29), stream),
		}
		for _, g := range actioningGranularities {
			wantLists := map[policy]listed{}
			for _, th := range thresholds {
				for _, ttl := range ttls {
					ref := NewBlocklistSim(g.fam, g.length, th, ttl)
					for d := simtime.Day(0); d < days; d++ {
						for _, o := range stream {
							if o.Day == d {
								ref.ObserveDay(o)
							}
						}
						ref.EndDay()
					}
					wantLists[policy{th, ttl}] = listed{ref.Counts(), ref.ListSize()}
					caught += ref.Counts().TP
					hitBenign += ref.Counts().FP
				}
			}
			wantRates := make([]RateLimitOutcome, len(caps))
			for i, c := range caps {
				ref := NewRateLimitSim(g.fam, g.length, c)
				for _, o := range byEntity {
					ref.Observe(o)
				}
				wantRates[i] = ref.Outcome()
				throttled += uint64(wantRates[i].BenignThrottled + wantRates[i].AbusiveThrottled)
			}
			for order, recs := range orders {
				forEachActioningFeed(g, days-1, recs, func(label string, ac *Actioning) {
					label = fmt.Sprintf("seed %d, %v /%d, %s, %s", seed, g.fam, g.length, order, label)
					for p, want := range wantLists {
						if c, size := ac.Blocklist(p.threshold, p.ttl); c != want.counts || size != want.size {
							t.Fatalf("%s: Blocklist(%v, %d) = %+v, %d, want %+v, %d", label, p.threshold, p.ttl, c, size, want.counts, want.size)
						}
					}
					if got := ac.RateLimit(caps); !reflect.DeepEqual(got, wantRates) {
						t.Fatalf("%s: RateLimit(%v) =\n%+v\nwant\n%+v", label, caps, got, wantRates)
					}
				})
			}
		}
	}
	if caught == 0 || hitBenign == 0 || throttled == 0 {
		t.Fatalf("degenerate references: %d caught, %d benign hit, %d throttled", caught, hitBenign, throttled)
	}
}

// TestActioningBlocklistEvictsOnEmptyDay: an entry leaves the list on
// the day its coverage ends, even when that day has no sighting of the
// family. (BlocklistSim skips eviction on such a day, so its ListSize
// still counts the expired entry.)
func TestActioningBlocklistEvictsOnEmptyDay(t *testing.T) {
	ac := NewActioning(netaddr.IPv4, 32, 0, 1)
	ac.Observe(obs(100, "10.0.0.1", 0, true))
	ac.Observe(obs(1, "2001:db8::1", 1, false)) // day 1: no IPv4 sighting
	if c, size := ac.Blocklist(0.5, 1); size != 0 || c != (stats.BinaryCounts{}) {
		t.Fatalf("TTL 1: counts %+v, list size %d, want nothing counted and an empty list", c, size)
	}
	// A TTL of 2 still covers day 2.
	if _, size := ac.Blocklist(0.5, 2); size != 1 {
		t.Fatalf("TTL 2: list size %d, want 1", size)
	}
}

// TestActioningRecallDecay: each day's share of abusive accounts on a
// prefix an abusive account used on the window's first day, 0 on a
// day without abusive accounts; a horizon past the window panics.
func TestActioningRecallDecay(t *testing.T) {
	ac := NewActioning(netaddr.IPv6, 64, 0, 3)
	ac.Observe(obs(100, "2001:db8:0:1::a", 0, true))
	ac.Observe(obs(1, "2001:db8:0:2::a", 0, false))  // a benign prefix is no indicator
	ac.Observe(obs(101, "2001:db8:0:1::b", 1, true)) // caught
	ac.Observe(obs(102, "2001:db8:0:2::b", 1, true)) // missed
	ac.Observe(obs(103, "2001:db8:0:3::c", 1, true)) // missed on one prefix ...
	ac.Observe(obs(103, "2001:db8:0:1::c", 1, true)) // ... caught on another
	ac.Observe(obs(2, "2001:db8:0:1::d", 2, false))  // day 2: benign only
	ac.Observe(obs(104, "2001:db8:0:1::e", 3, true)) // caught
	if got, want := ac.RecallDecay(3), []float64{2.0 / 3, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("RecallDecay(3) = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RecallDecay(4) past the window did not panic")
		}
	}()
	ac.RecallDecay(4)
}

func TestAdviseEndToEnd(t *testing.T) {
	ac := buildActioning()
	roc := ac.Curve(DefaultThresholds())

	usersV6 := stats.NewIntHist(8)
	usersV6.Add(1)
	usersV6.Add(1)
	usersV6.Add(2)
	usersV4 := stats.NewIntHist(8)
	usersV4.Add(10)
	usersV4.Add(12)
	p64 := stats.NewIntHist(8)
	p64.Add(3)
	p48 := stats.NewIntHist(8)
	p48.Add(11)
	aaV4 := stats.NewIntHist(8)
	aaV4.Add(2)
	aa56 := stats.NewIntHist(8)
	aa56.Add(2)
	aa64 := stats.NewIntHist(8)
	aa64.Add(1)

	a := Advise(AdvisorInputs{
		ROC128:             roc,
		ROC64:              roc,
		ROCV4:              roc,
		FPRTolerance:       0.5,
		UsersPerV6Addr:     usersV6,
		UsersPerV4Addr:     usersV4,
		UsersPerV6Prefix:   map[int]*stats.IntHist{64: p64, 48: p48},
		AbusivePerV6Prefix: map[int]*stats.IntHist{56: aa56, 64: aa64},
		AbusivePerV4Addr:   aaV4,
		V6AddrFreshShare:   0.9,
	})
	if a.BlocklistGranularity != 128 && a.BlocklistGranularity != 64 {
		t.Fatalf("granularity = %d", a.BlocklistGranularity)
	}
	if a.BlocklistTTLDays != 1 {
		t.Fatalf("TTL = %d, want 1 for 90%% fresh addresses", a.BlocklistTTLDays)
	}
	if a.RateLimitUsersPerV6Addr < 1 || a.RateLimitUsersPerV6Addr > 2 {
		t.Fatalf("rate limit budget = %d", a.RateLimitUsersPerV6Addr)
	}
	// /48 users-per-prefix (11) is far closer to v4 (10, 12) than /64.
	if a.RateLimitV4EquivalentLength != 48 {
		t.Fatalf("rate-limit equivalent = /%d, want /48", a.RateLimitV4EquivalentLength)
	}
	// /56 abusive distribution (2) matches v4 (2) exactly.
	if a.BlocklistV4EquivalentLength != 56 {
		t.Fatalf("blocklist equivalent = /%d, want /56", a.BlocklistV4EquivalentLength)
	}
}

func TestClosestToV4(t *testing.T) {
	v4 := stats.NewIntHist(8)
	for _, v := range []int{5, 6, 7} {
		v4.Add(v)
	}
	near := stats.NewIntHist(8)
	for _, v := range []int{5, 6, 8} {
		near.Add(v)
	}
	far := stats.NewIntHist(8)
	for _, v := range []int{1, 1, 1} {
		far.Add(v)
	}
	best, all := ClosestToV4(v4, map[int]*stats.IntHist{56: near, 64: far}, 16)
	if best.Length != 56 {
		t.Fatalf("best = %+v", best)
	}
	if len(all) != 2 {
		t.Fatalf("all = %d", len(all))
	}
	for _, e := range all {
		if e.Distance < 0 || e.Distance > 1 {
			t.Fatalf("KS distance out of range: %+v", e)
		}
	}
}

func TestAdviseTTLBands(t *testing.T) {
	base := AdvisorInputs{
		ROC128: stats.NewROC([]stats.ROCPoint{{TPR: 0.1, FPR: 0.001}}),
		ROC64:  stats.NewROC([]stats.ROCPoint{{TPR: 0.2, FPR: 0.001}}),
		ROCV4:  stats.NewROC([]stats.ROCPoint{{TPR: 0.1, FPR: 0.3}}),
	}
	base.FPRTolerance = 0.01
	for _, c := range []struct {
		fresh float64
		want  int
	}{{0.95, 1}, {0.8, 3}, {0.5, 7}} {
		in := base
		in.V6AddrFreshShare = c.fresh
		if got := Advise(in).BlocklistTTLDays; got != c.want {
			t.Errorf("fresh=%v TTL = %d, want %d", c.fresh, got, c.want)
		}
	}
	// /64 outperforms /128 at tolerance: choose /64.
	if got := Advise(base).BlocklistGranularity; got != 64 {
		t.Errorf("granularity = %d, want 64", got)
	}
	// v6 dominates v4 at low FPR here.
	if !Advise(base).V6BeatsV4BelowFPR {
		t.Error("expected v6 dominance")
	}
}
