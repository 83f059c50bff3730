package core

// The unit cases of the reference simulators BlocklistSim and
// RateLimitSim. Each case's inputs also run through the Actioning
// queries that replaced them: the checked wrappers below fail a case
// whose query answers differ from the simulator's.

import (
	"math"
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/simtime"
	"userv6/internal/stats"
	"userv6/internal/telemetry"
)

// checkedBlocklist is a BlocklistSim that keeps what it was fed. Its
// Counts and ListSize also replay Actioning.Blocklist over the days
// ended so far (from day 0) and fail the test unless it agrees.
type checkedBlocklist struct {
	*BlocklistSim
	t     *testing.T
	fed   []telemetry.Observation
	ended simtime.Day
}

func newCheckedBlocklist(t *testing.T, fam netaddr.Family, length int, threshold float64, ttlDays int) *checkedBlocklist {
	return &checkedBlocklist{BlocklistSim: NewBlocklistSim(fam, length, threshold, ttlDays), t: t}
}

func (b *checkedBlocklist) ObserveDay(o telemetry.Observation) {
	b.BlocklistSim.ObserveDay(o)
	b.fed = append(b.fed, o)
}

func (b *checkedBlocklist) EndDay() {
	b.BlocklistSim.EndDay()
	b.ended++
}

// check fails the test unless Actioning.Blocklist gives the
// simulator's counts and list size.
func (b *checkedBlocklist) check() {
	b.t.Helper()
	ac := NewActioning(b.Family, b.Length, 0, b.ended-1)
	for _, o := range b.fed {
		ac.Observe(o)
	}
	c, size := ac.Blocklist(b.Threshold, b.TTLDays)
	if c != b.BlocklistSim.Counts() || size != b.BlocklistSim.ListSize() {
		b.t.Fatalf("Actioning.Blocklist = %+v, %d; BlocklistSim: %+v, %d", c, size, b.BlocklistSim.Counts(), b.BlocklistSim.ListSize())
	}
}

func (b *checkedBlocklist) Counts() stats.BinaryCounts {
	b.t.Helper()
	b.check()
	return b.BlocklistSim.Counts()
}

func (b *checkedBlocklist) ListSize() int {
	b.t.Helper()
	b.check()
	return b.BlocklistSim.ListSize()
}

// checkedRateLimit is a RateLimitSim that keeps what it was fed. Its
// Outcome also asks Actioning.RateLimit over the days fed and fails the
// test unless it agrees; the cases feed each (day, prefix)'s entities
// in the order RateLimit admits them.
type checkedRateLimit struct {
	*RateLimitSim
	t   *testing.T
	fed []telemetry.Observation
}

func newCheckedRateLimit(t *testing.T, fam netaddr.Family, length, cap int) *checkedRateLimit {
	return &checkedRateLimit{RateLimitSim: NewRateLimitSim(fam, length, cap), t: t}
}

func (r *checkedRateLimit) Observe(o telemetry.Observation) {
	r.RateLimitSim.Observe(o)
	r.fed = append(r.fed, o)
}

func (r *checkedRateLimit) Outcome() RateLimitOutcome {
	r.t.Helper()
	var last simtime.Day
	for _, o := range r.fed {
		last = max(last, o.Day)
	}
	ac := NewActioning(r.Family, r.Length, 0, last)
	for _, o := range r.fed {
		ac.Observe(o)
	}
	want := r.RateLimitSim.Outcome()
	if got := ac.RateLimit([]int{r.Cap})[0]; got != want {
		r.t.Fatalf("Actioning.RateLimit = %+v; RateLimitSim: %+v", got, want)
	}
	return want
}

func TestBlocklistBasicFlow(t *testing.T) {
	b := newCheckedBlocklist(t, netaddr.IPv4, 32, 0.5, 2)
	// Day 0 (warmup): pure-abusive addr A; mixed addr B (ratio 1/3).
	b.ObserveDay(obs(100, "10.0.0.1", 0, true))
	b.ObserveDay(obs(101, "10.0.0.2", 0, true))
	b.ObserveDay(obs(1, "10.0.0.2", 0, false))
	b.ObserveDay(obs(2, "10.0.0.2", 0, false))
	b.EndDay()
	if b.ListSize() != 1 {
		t.Fatalf("list size = %d, want only the pure address", b.ListSize())
	}
	// No hits counted on warmup day.
	if c := b.Counts(); c.TP+c.FP+c.TN+c.FN != 0 {
		t.Fatalf("warmup day tallied: %+v", c)
	}

	// Day 1: AA 102 returns to addr A (listed -> TP); AA 103 appears on
	// fresh addr C (FN); benign 3 appears on A (FP); benign 4 elsewhere
	// (TN).
	b.ObserveDay(obs(102, "10.0.0.1", 1, true))
	b.ObserveDay(obs(103, "10.0.0.3", 1, true))
	b.ObserveDay(obs(3, "10.0.0.1", 1, false))
	b.ObserveDay(obs(4, "10.0.0.4", 1, false))
	b.EndDay()

	c := b.Counts()
	if c.TP != 1 || c.FN != 1 || c.FP != 1 || c.TN != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestBlocklistTTLExpiry(t *testing.T) {
	// TTL 1: an entry created at the end of day 0 covers day 1 only.
	b := newCheckedBlocklist(t, netaddr.IPv4, 32, 0.5, 1)
	b.ObserveDay(obs(100, "10.0.0.1", 0, true))
	b.EndDay()
	if b.ListSize() != 1 {
		t.Fatalf("list = %d", b.ListSize())
	}
	b.ObserveDay(obs(101, "10.0.0.1", 1, true)) // covered (TP)
	b.ObserveDay(obs(5, "10.0.0.9", 1, false))
	b.EndDay()
	if c := b.Counts(); c.TP != 1 || c.TN != 1 {
		t.Fatalf("TTL-1 day-1 counts = %+v", c)
	}
	// The day-0 entry is gone after day 1 (it was refreshed by AA 101
	// though, covering day 2); an unrefreshed entry vanishes:
	b2 := newCheckedBlocklist(t, netaddr.IPv4, 32, 0.5, 1)
	b2.ObserveDay(obs(100, "10.0.0.1", 0, true))
	b2.EndDay()
	b2.ObserveDay(obs(5, "10.0.0.9", 1, false)) // nothing abusive today
	b2.EndDay()
	if b2.ListSize() != 0 {
		t.Fatalf("entry not evicted: %d", b2.ListSize())
	}
	// Day 2: the original entry no longer covers.
	b2.ObserveDay(obs(102, "10.0.0.1", 2, true))
	b2.EndDay()
	if c := b2.Counts(); c.TP != 0 || c.FN != 1 {
		t.Fatalf("expired entry still hit: %+v", c)
	}

	// Longer TTL covers later days without refresh.
	b3 := newCheckedBlocklist(t, netaddr.IPv4, 32, 0.5, 3)
	b3.ObserveDay(obs(100, "10.0.0.1", 0, true))
	b3.EndDay()
	b3.ObserveDay(obs(5, "10.0.0.9", 1, false))
	b3.EndDay()
	b3.ObserveDay(obs(103, "10.0.0.1", 2, true)) // still covered
	b3.EndDay()
	if c := b3.Counts(); c.TP != 1 {
		t.Fatalf("TTL-3 counts = %+v", c)
	}
}

func TestBlocklistRelistExtends(t *testing.T) {
	b := newCheckedBlocklist(t, netaddr.IPv4, 32, 0.5, 2)
	for day := simtime.Day(0); day < 5; day++ {
		b.ObserveDay(obs(100+uint64(day), "10.0.0.1", day, true))
		b.EndDay()
	}
	// Re-listed daily: all 4 measured days are hits.
	if c := b.Counts(); c.TP != 4 || c.FN != 0 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestBlocklistThresholdZeroListsAnyAbuse(t *testing.T) {
	b := newCheckedBlocklist(t, netaddr.IPv4, 32, 0, 2)
	b.ObserveDay(obs(100, "10.0.0.2", 0, true))
	for u := uint64(1); u <= 9; u++ {
		b.ObserveDay(obs(u, "10.0.0.2", 0, false))
	}
	b.EndDay()
	if b.ListSize() != 1 {
		t.Fatalf("threshold-0 did not list mixed address")
	}
}

func TestBlocklistPrefixGranularity(t *testing.T) {
	b := newCheckedBlocklist(t, netaddr.IPv6, 64, 0, 2)
	b.ObserveDay(obs(100, "2001:db8:0:1::a", 0, true))
	b.EndDay()
	// Next day, different address in the same /64: covered.
	b.ObserveDay(obs(101, "2001:db8:0:1::b", 1, true))
	b.EndDay()
	if c := b.Counts(); c.TP != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestRateLimitCapsPerPrefixDay(t *testing.T) {
	r := newCheckedRateLimit(t, netaddr.IPv4, 32, 2)
	// 5 benign users on one address in one day: first 2 pass, 3
	// throttled.
	for u := uint64(1); u <= 5; u++ {
		r.Observe(obs(u, "10.0.0.1", 0, false))
	}
	// Duplicate sightings don't consume extra slots.
	r.Observe(obs(1, "10.0.0.1", 0, false))
	out := r.Outcome()
	if out.Benign != 5 || out.BenignThrottled != 3 {
		t.Fatalf("outcome = %+v", out)
	}
	if math.Abs(out.BenignShare-0.6) > 1e-12 {
		t.Fatalf("benign share = %v", out.BenignShare)
	}
}

func TestRateLimitResetsDaily(t *testing.T) {
	r := newCheckedRateLimit(t, netaddr.IPv4, 32, 2)
	for day := simtime.Day(0); day < 3; day++ {
		for u := uint64(1); u <= 2; u++ {
			r.Observe(obs(u, "10.0.0.1", day, false))
		}
	}
	if out := r.Outcome(); out.BenignThrottled != 0 {
		t.Fatalf("daily reset failed: %+v", out)
	}
}

func TestRateLimitCatchesAbusiveBursts(t *testing.T) {
	r := newCheckedRateLimit(t, netaddr.IPv6, 64, 3)
	// 10 abusive accounts share a /64 on one day; 2 benign users too.
	for u := uint64(0); u < 10; u++ {
		addr := netaddr.MustParseAddr("2001:db8:0:1::").WithIID(100 + u)
		r.Observe(obs(1000+u, addr.String(), 0, true))
	}
	r.Observe(obs(1, "2001:db8:0:2::1", 0, false))
	r.Observe(obs(2, "2001:db8:0:2::2", 0, false))
	out := r.Outcome()
	if out.AbusiveThrottled != 7 {
		t.Fatalf("abusive throttled = %d, want 7", out.AbusiveThrottled)
	}
	if out.BenignThrottled != 0 {
		t.Fatalf("benign throttled = %d", out.BenignThrottled)
	}
	if out.AbusiveShare <= out.BenignShare {
		t.Fatal("rate limit failed to separate populations")
	}
}

func TestRateLimitFamilyFilter(t *testing.T) {
	r := newCheckedRateLimit(t, netaddr.IPv4, 32, 1)
	r.Observe(obs(1, "2001:db8::1", 0, false))
	if out := r.Outcome(); out.Benign != 0 {
		t.Fatal("v6 observation counted by v4 limiter")
	}
}
