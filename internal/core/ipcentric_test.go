package core

import (
	"fmt"
	"math"
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/telemetry"
)

func TestIPCentricUsersPerAddr(t *testing.T) {
	ic := NewIPCentric(netaddr.IPv4, 32)
	// Addr A: users 1, 2 (user 1 twice -> dedup). Addr B: user 3.
	ic.Observe(obs(1, "10.0.0.1", 0, false))
	ic.Observe(obs(1, "10.0.0.1", 1, false))
	ic.Observe(obs(2, "10.0.0.1", 0, false))
	ic.Observe(obs(3, "10.0.0.2", 0, false))
	// IPv6 observation ignored by a v4 analyzer.
	ic.Observe(obs(4, "2001:db8::1", 0, false))

	if ic.Prefixes() != 2 {
		t.Fatalf("prefixes = %d", ic.Prefixes())
	}
	h := ic.UsersPerPrefix()
	if h.N() != 2 || h.Max() != 2 {
		t.Fatalf("hist N=%d max=%d", h.N(), h.Max())
	}
	if got := h.CDFAt(1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("single-user share = %v", got)
	}
}

func TestIPCentricPrefixAggregation(t *testing.T) {
	ic := NewIPCentric(netaddr.IPv6, 64)
	// Two users on different addresses in the same /64.
	ic.Observe(obs(1, "2001:db8:0:1::a", 0, false))
	ic.Observe(obs(2, "2001:db8:0:1::b", 0, false))
	if ic.Prefixes() != 1 {
		t.Fatalf("prefixes = %d", ic.Prefixes())
	}
	if got := ic.UsersPerPrefix().Max(); got != 2 {
		t.Fatalf("users in /64 = %d", got)
	}
}

func TestIPCentricAbusiveSplits(t *testing.T) {
	ic := NewIPCentric(netaddr.IPv4, 32)
	// Addr A: 1 abusive + 2 benign. Addr B: 2 abusive, 0 benign.
	// Addr C: benign only.
	ic.Observe(obs(100, "10.0.0.1", 0, true))
	ic.Observe(obs(1, "10.0.0.1", 0, false))
	ic.Observe(obs(2, "10.0.0.1", 0, false))
	ic.Observe(obs(101, "10.0.0.2", 0, true))
	ic.Observe(obs(102, "10.0.0.2", 0, true))
	ic.Observe(obs(3, "10.0.0.3", 0, false))

	aa := ic.AbusivePerAbusivePrefix()
	if aa.N() != 2 {
		t.Fatalf("AA prefixes = %d", aa.N())
	}
	if got := aa.CDFAt(1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("single-AA share = %v", got)
	}
	benign := ic.BenignPerAbusivePrefix()
	if benign.N() != 2 {
		t.Fatalf("benign hist over AA prefixes N = %d", benign.N())
	}
	if got := benign.CDFAt(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("zero-benign share = %v", got)
	}
	all := ic.BenignPerPrefix()
	if all.N() != 3 {
		t.Fatalf("benign hist over all prefixes N = %d", all.N())
	}
	if got := ic.PrefixesWithMoreThan(2); got != 1 {
		t.Fatalf("PrefixesWithMoreThan(2) = %d", got)
	}
}

func TestTopPrefixes(t *testing.T) {
	ic := NewIPCentric(netaddr.IPv4, 32)
	for u := uint64(0); u < 5; u++ {
		ic.Observe(obs(u, "10.0.0.1", 0, false))
	}
	ic.Observe(obs(9, "10.0.0.2", 0, true))
	tops := ic.TopPrefixes(10)
	if len(tops) != 2 || tops[0].Users != 5 || tops[1].Abusive != 1 {
		t.Fatalf("tops = %+v", tops)
	}
	if got := ic.TopPrefixes(1); len(got) != 1 {
		t.Fatalf("TopPrefixes(1) = %d entries", len(got))
	}
}

func TestConcentration(t *testing.T) {
	ic := NewIPCentric(netaddr.IPv6, 128)
	// Heavy gateway-style address (structured IID) with 3 users.
	gw := netaddr.MustParseAddr("2600:380:1:2::7")
	for u := uint64(0); u < 3; u++ {
		ic.Observe(obs(u, gw.String(), 0, false))
	}
	// Light random address.
	ic.Observe(obs(9, "2001:db8::a1b2:c3d4:e5f6:1122", 0, false))

	asnOf := func(a netaddr.Addr) netmodel.ASN {
		if netaddr.PrefixFrom(a, 32) == netaddr.MustParsePrefix("2600:380::/32") {
			return 20057
		}
		return 1
	}
	hc := ic.ConcentrationAbove(2, asnOf)
	if hc.Heavy != 1 || hc.TopASN != 20057 || hc.TopASNShare != 1 || hc.StructuredShare != 1 || hc.ASNs != 1 {
		t.Fatalf("concentration = %+v", hc)
	}
	// Threshold nobody crosses.
	if hc := ic.ConcentrationAbove(100, asnOf); hc.Heavy != 0 || hc.StructuredShare != 0 {
		t.Fatalf("empty concentration = %+v", hc)
	}
	// Nil asnOf must not panic.
	_ = ic.ConcentrationAbove(2, nil)
}

// TestIPCentricQueryBetweenFeeds checks that a query's cached prefix
// populations are dropped by every change: each IPCentric of the full
// set is queried after part of a stream, then after re-observing a
// pair it holds, a new pair for a known user, a new user, and a Merge
// of a fed replica, and every answer must equal a fresh feed's.
func TestIPCentricQueryBetweenFeeds(t *testing.T) {
	stream := oracleStream(5, 300, 10, 40)
	half := len(stream) / 2
	asnOf := func(a netaddr.Addr) netmodel.ASN {
		hi, lo := a.Words()
		return netmodel.ASN((hi ^ lo) % 7)
	}
	queries := func(ic *IPCentric) map[string]any {
		q := map[string]any{}
		ipCentricQueries(q, "ic", ic)
		q["ic.more_than_1"] = ic.PrefixesWithMoreThan(1)
		q["ic.concentration"] = ic.ConcentrationAbove(1, asnOf)
		return q
	}
	for _, c := range []struct {
		fam    netaddr.Family
		length int
	}{{netaddr.IPv4, 32}, {netaddr.IPv6, 128}, {netaddr.IPv6, 64}} {
		name := fmt.Sprintf("%v/%d", c.fam, c.length)
		prefix := func(o telemetry.Observation) netaddr.Prefix { return netaddr.PrefixFrom(o.Addr, c.length) }
		ic := NewIPCentric(c.fam, c.length)
		var fed []telemetry.Observation
		feed := func(obs ...telemetry.Observation) {
			for _, o := range obs {
				ic.Observe(o)
			}
			fed = append(fed, obs...)
		}
		check := func(step string) {
			t.Helper()
			fresh := NewIPCentric(c.fam, c.length)
			for _, o := range fed {
				fresh.Observe(o)
			}
			assertQueries(t, name+", "+step, queries(ic), queries(fresh))
		}

		feed(stream[:half]...)
		check("part of the stream")

		// u is a pair of the first user of the family, and v a pair of
		// another user on a prefix u's user does not hold.
		var u, v telemetry.Observation
		held := map[netaddr.Prefix]bool{}
		for _, o := range fed {
			if o.Addr.Family() == c.fam && (!u.Addr.IsValid() || o.UserID == u.UserID) {
				u = o
				held[prefix(o)] = true
			}
		}
		for _, o := range fed {
			if o.Addr.Family() == c.fam && !held[prefix(o)] {
				v = o
				break
			}
		}
		if !v.Addr.IsValid() {
			t.Fatalf("%s: no two users of the family in the first half", name)
		}
		feed(u)
		check("a pair it holds")
		known := v
		known.UserID, known.Abusive = u.UserID, u.Abusive
		feed(known)
		check("a new pair for a known user")
		newcomer := v
		newcomer.UserID, newcomer.Abusive = 1<<50, false
		feed(newcomer)
		check("a new user")

		replica := NewIPCentric(c.fam, c.length)
		for _, o := range stream[half:] {
			replica.Observe(o)
		}
		ic.Merge(replica)
		fed = append(fed, stream[half:]...)
		check("a merged replica")
	}
}
