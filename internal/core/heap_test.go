package core

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/telemetry"
)

// liveHeap returns the objects and bytes live on the heap after a full
// GC.
func liveHeap() (objects, bytes int64) {
	live := []metrics.Sample{{Name: "/gc/heap/objects:objects"}, {Name: "/gc/heap/live:bytes"}}
	runtime.GC()
	metrics.Read(live)
	return int64(live[0].Value.Uint64()), int64(live[1].Value.Uint64())
}

// retainedObjects returns the number of live heap objects a fullSet
// retains after a sequential feed of an oracle stream of the given
// number of users (plus the heavy user).
func retainedObjects(users int) int64 {
	stream := oracleStream(1, users, 10, 1200)
	before, _ := liveHeap()
	f := sequentialFullSet(stream, oracleRef)
	after, _ := liveHeap()
	runtime.KeepAlive(f)
	return after - before
}

// TestAnalyzerStateHeapObjects checks that the default analyzers keep
// their state where the GC does not trace it: four times the users
// retain only a few hundred more heap objects (chunks and map tables,
// not users or keys), and re-observing a known (user, address) pair
// allocates nothing.
func TestAnalyzerStateHeapObjects(t *testing.T) {
	const moreUsers = 8000 - 2000
	small, large := retainedObjects(2000), retainedObjects(8000)
	if grew := large - small; grew > moreUsers/8 {
		t.Errorf("2k users retain %d heap objects, 8k users %d: %d more for %d more users", small, large, grew, moreUsers)
	}

	stream := oracleStream(2, 300, 10, 1200)
	f := sequentialFullSet(stream, oracleRef)
	var v4, abusive telemetry.Observation
	for _, o := range stream {
		if o.Addr.Is4() && v4.UserID == 0 {
			v4 = o
		}
		if o.Abusive && !abusive.Abusive {
			abusive = o
		}
	}
	heavy := stream[len(stream)-1] // indexed key lists
	for _, c := range []struct {
		name string
		obs  []telemetry.Observation
	}{
		{"same user", []telemetry.Observation{stream[len(stream)/2]}},
		{"users in turn", []telemetry.Observation{stream[0], v4, abusive, heavy}},
	} {
		allocs := testing.AllocsPerRun(50, func() {
			for _, o := range c.obs {
				f.set.Observe(o)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: re-observing known pairs allocates %.1f times", c.name, allocs)
		}
	}
}

// TestAnalyzerStateBytes bounds the heap each default analyzer retains
// per stored (user, key) entry when fed the oracle stream alone: its
// pool chunks, user table and tallies over the entries of its key
// lists. Keys are a prefix's two words (16 bytes) and days int32s, and
// each bound sits between what that costs and what 24-byte
// netaddr.Addr keys or 8-byte simtime.Day days would cost, so widening
// either fails it.
func TestAnalyzerStateBytes(t *testing.T) {
	stream := oracleStream(3, 8000, 10, 1200)
	count := func(lists ...keyList) (n int) {
		for _, l := range lists {
			n += int(l.n)
		}
		return n
	}
	ic := func(fam netaddr.Family, length int) func() (Observer, func() int) {
		return func() (Observer, func() int) {
			a := NewIPCentric(fam, length)
			return a, func() (n int) {
				a.users.each(func(_ uint64, u *userPrefixes) { n += count(u.pfx) })
				return n
			}
		}
	}
	for _, c := range []struct {
		name string
		// bound is in bytes per entry. The comment gives the cost
		// measured on x86-64, then the lower of the costs measured with
		// 24-byte keys and with 8-byte days.
		bound float64
		make  func() (a Observer, entries func() int)
	}{
		{"usercentric", 27, func() (Observer, func() int) { // 22.7; 32.5
			a := NewUserCentricFor(false)
			return a, func() (n int) {
				a.users.each(func(_ uint64, u *userAddrs) { n += count(u.v4, u.v6) })
				return n
			}
		}},
		{"ipcentric v4/32", 25, ic(netaddr.IPv4, 32)},   // 21.0; 29.5
		{"ipcentric v6/128", 64, ic(netaddr.IPv6, 128)}, // 53.6; 76.5
		{"ipcentric v6/64", 46, ic(netaddr.IPv6, 64)},   // 41.1; 51.4
		{"churn", 35, func() (Observer, func() int) { // 32.6; 37.6
			a := NewChurnAttribution(oracleCountFrom)
			return a, func() (n int) {
				a.users.each(func(_ uint64, u *userFirsts) { n += count(u.addrs, u.p64, u.p44) })
				return n
			}
		}},
		{"lifespans", 39, func() (Observer, func() int) { // 35.3; 44.9
			a := NewLifespans(oracleRef, 64, 128, 32)
			return a, a.Pairs
		}},
		{"prevalence", 16.5, func() (Observer, func() int) { // 14.9; 18.4
			a := NewPrevalence()
			return a, func() (n int) {
				a.users.each(func(_ uint64, u *userMasks) { n += count(u.days, u.asns, u.countries) })
				return n
			}
		}},
	} {
		_, before := liveHeap()
		a, entries := c.make()
		for _, o := range stream {
			if _, prev := a.(*Prevalence); !prev || !o.Abusive {
				a.Observe(o)
			}
		}
		_, after := liveHeap()
		n := entries()
		if per := float64(after-before) / float64(n); per > c.bound {
			t.Errorf("%s retains %.1f bytes per (user, key) entry over %d entries, want at most %.1f", c.name, per, n, c.bound)
		}
	}
}
