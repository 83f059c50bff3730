package core

import (
	"math"
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/simtime"
)

func TestLifespanAges(t *testing.T) {
	ls := NewLifespans(10, 32, 64, 128)
	// Pair (1, v6 addr) first seen day 3, seen again on ref day 10:
	// age 7.
	ls.Observe(obs(1, "2001:db8::1", 3, false))
	ls.Observe(obs(1, "2001:db8::1", 10, false))
	// Pair (1, other addr) seen only on ref day: age 0.
	ls.Observe(obs(1, "2001:db8::2", 10, false))
	// Pair (2, v4) first seen day 0, ref day: age 10.
	ls.Observe(obs(2, "10.0.0.1", 0, false))
	ls.Observe(obs(2, "10.0.0.1", 10, false))
	// Pair seen before ref but NOT on ref: excluded.
	ls.Observe(obs(3, "2001:db8::3", 5, false))
	// Pair after ref: ignored entirely.
	ls.Observe(obs(4, "2001:db8::4", 11, false))

	h6 := ls.AgeHist(netaddr.IPv6, 128)
	if h6.N() != 2 {
		t.Fatalf("v6 pairs on ref = %d, want 2", h6.N())
	}
	if got := h6.CDFAt(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("v6 fresh share = %v", got)
	}
	if h6.Max() != 7 {
		t.Fatalf("v6 max age = %d", h6.Max())
	}
	h4 := ls.AgeHist(netaddr.IPv4, 32)
	if h4.N() != 1 || h4.Max() != 10 {
		t.Fatalf("v4 hist N=%d max=%d", h4.N(), h4.Max())
	}
}

// TestLifespanMixedFamilies: at lengths that fit both families, an
// IPv4 and an IPv6 address whose prefixes share their words (0.0.0.0/L
// and ::/L) are two pairs, each counted in its own family's ages.
func TestLifespanMixedFamilies(t *testing.T) {
	ls := NewLifespans(10, 8, 32)
	ls.Observe(obs(1, "0.0.0.1", 10, false))
	ls.Observe(obs(1, "::1", 10, false))
	if got := ls.Pairs(); got != 4 {
		t.Fatalf("pairs = %d, want 2 per length", got)
	}
	for _, length := range []int{8, 32} {
		for _, fam := range []netaddr.Family{netaddr.IPv4, netaddr.IPv6} {
			if h := ls.AgeHist(fam, length); h.N() != 1 || h.Max() != 0 {
				t.Fatalf("%v /%d: %d ages (max %d), want one of 0", fam, length, h.N(), h.Max())
			}
		}
	}
}

func TestLifespanEarlierSightingLowersFirst(t *testing.T) {
	ls := NewLifespans(10, 128)
	// Out-of-order observation: later day first.
	ls.Observe(obs(1, "2001:db8::1", 10, false))
	ls.Observe(obs(1, "2001:db8::1", 2, false))
	h := ls.AgeHist(netaddr.IPv6, 128)
	if h.Max() != 8 {
		t.Fatalf("age = %d, want 8", h.Max())
	}
}

func TestLifespanPrefixLevels(t *testing.T) {
	ls := NewLifespans(10, 64, 128)
	// Same /64, different IIDs across days: /128 pairs fresh, /64 pair
	// old.
	ls.Observe(obs(1, "2001:db8:0:1::a", 4, false))
	ls.Observe(obs(1, "2001:db8:0:1::b", 10, false))
	h128 := ls.AgeHist(netaddr.IPv6, 128)
	if h128.N() != 1 || h128.Max() != 0 {
		t.Fatalf("/128: N=%d max=%d", h128.N(), h128.Max())
	}
	h64 := ls.AgeHist(netaddr.IPv6, 64)
	if h64.N() != 1 || h64.Max() != 6 {
		t.Fatalf("/64: N=%d max=%d, want age 6", h64.N(), h64.Max())
	}
}

func TestMedianAgePerUser(t *testing.T) {
	ls := NewLifespans(10, 128)
	// User 1 has three pairs with ages 0, 0, 9 -> median 0.
	ls.Observe(obs(1, "2001:db8::a", 10, false))
	ls.Observe(obs(1, "2001:db8::b", 10, false))
	ls.Observe(obs(1, "2001:db8::c", 1, false))
	ls.Observe(obs(1, "2001:db8::c", 10, false))
	// User 2 has one pair with age 5.
	ls.Observe(obs(2, "2001:db8::d", 5, false))
	ls.Observe(obs(2, "2001:db8::d", 10, false))
	h := ls.MedianAgePerUser(netaddr.IPv6, 128)
	if h.N() != 2 {
		t.Fatalf("users = %d", h.N())
	}
	if got := h.CDFAt(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("median-age CDF at 0 = %v", got)
	}
	if h.Max() != 5 {
		t.Fatalf("max median = %d", h.Max())
	}
}

func TestFreshShares(t *testing.T) {
	ls := NewLifespans(10, 64, 128)
	// Ages 0, 1, 2, 5 at /128 for user 1 (distinct /64s so the /64
	// pairs carry the same ages).
	for i, age := range []int{0, 1, 2, 5} {
		addr := netaddr.MustParsePrefix("2001:db8::/32").Subnet(64, uint64(i)).Addr().WithIID(1)
		ls.Observe(obs(1, addr.String(), simtime.Day(10-age), false))
		ls.Observe(obs(1, addr.String(), 10, false))
	}
	shares := ls.FreshShares(netaddr.IPv6)
	if len(shares) != 2 {
		t.Fatalf("lengths = %d", len(shares))
	}
	for _, fs := range shares {
		if fs.Pairs != 4 {
			t.Fatalf("/%d pairs = %d", fs.Length, fs.Pairs)
		}
		if math.Abs(fs.Within1-0.25) > 1e-12 {
			t.Fatalf("/%d within1 = %v", fs.Length, fs.Within1)
		}
		if math.Abs(fs.Within2-0.5) > 1e-12 {
			t.Fatalf("/%d within2 = %v", fs.Length, fs.Within2)
		}
		if math.Abs(fs.Within3-0.75) > 1e-12 {
			t.Fatalf("/%d within3 = %v", fs.Length, fs.Within3)
		}
	}
	if got := ls.FreshShares(netaddr.IPv4); len(got) != 0 {
		t.Fatalf("v4 shares = %v, want none", got)
	}
}

func TestLifespanRestrict(t *testing.T) {
	ls := NewLifespans(5, 128).Restrict(true)
	ls.Observe(obs(1, "2001:db8::1", 5, false))
	ls.Observe(obs(2, "2001:db8::2", 5, true))
	if ls.Pairs() != 1 {
		t.Fatalf("pairs = %d, want only the abusive one", ls.Pairs())
	}
}

func TestMedianInt(t *testing.T) {
	cases := []struct {
		in   []int
		want int
	}{
		{[]int{5}, 5},
		{[]int{2, 1}, 1},
		{[]int{3, 1, 2}, 2},
		{[]int{4, 1, 3, 2}, 2},
	}
	for _, c := range cases {
		if got := medianInt(append([]int(nil), c.in...)); got != c.want {
			t.Errorf("medianInt(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}
