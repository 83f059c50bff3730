package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/telemetry"
)

// sortedTopPrefixes is TopPrefixes as a full sort: every prefix ranked,
// then cut at k.
func sortedTopPrefixes(ic *IPCentric, k int) []HeavyPrefix {
	pops := ic.tally()
	tops := make([]HeavyPrefix, 0, len(pops))
	for _, p := range pops {
		tops = append(tops, HeavyPrefix{Prefix: netaddr.PrefixFrom(p.k.addr(ic.Family), ic.Length), Users: p.users(), Abusive: p.abusive()})
	}
	sort.Slice(tops, func(i, j int) bool {
		if tops[i].Users != tops[j].Users {
			return tops[i].Users > tops[j].Users
		}
		return tops[i].Prefix.Addr().Less(tops[j].Prefix.Addr())
	})
	if k < len(tops) {
		tops = tops[:k]
	}
	return tops
}

// sortedTopUsers is TopUsersByAddrs as a full sort.
func sortedTopUsers(uc *UserCentric, fam netaddr.Family, k int) []TopUser {
	tops := make([]TopUser, 0, uc.users.len())
	uc.users.each(func(uid uint64, u *userAddrs) {
		if n := u.count(fam); n > 0 {
			tops = append(tops, TopUser{UID: uid, Count: n})
		}
	})
	sort.Slice(tops, func(i, j int) bool {
		if tops[i].Count != tops[j].Count {
			return tops[i].Count > tops[j].Count
		}
		return tops[i].UID < tops[j].UID
	})
	if k < len(tops) {
		tops = tops[:k]
	}
	return tops
}

// TestTopKMatchesFullSort: TopPrefixes and TopUsersByAddrs return what
// ranking every entry and cutting at k returns, nil-ness included, at
// k = 0, 1, 10, n and n+1 for n entries, on an oracle feed, where most
// entries tie on their count with another, and on empty analyzers.
func TestTopKMatchesFullSort(t *testing.T) {
	check := func(label string, n int, got, want func(k int) any) {
		t.Helper()
		for _, k := range []int{0, 1, 10, n, n + 1} {
			if g, w := got(k), want(k); !reflect.DeepEqual(g, w) {
				t.Errorf("%s, k=%d of %d:\n got %#v\nwant %#v", label, k, n, g, w)
			}
		}
	}
	for _, stream := range [][]telemetry.Observation{nil, oracleStream(1, 300, 10, 1200)} {
		uc := NewUserCentric()
		ics := []*IPCentric{NewIPCentric(netaddr.IPv4, 32), NewIPCentric(netaddr.IPv6, 128), NewIPCentric(netaddr.IPv6, 64)}
		for _, o := range stream {
			uc.Observe(o)
			for _, ic := range ics {
				ic.Observe(o)
			}
		}
		for _, ic := range ics {
			n := ic.Prefixes()
			check(fmt.Sprintf("%d records, TopPrefixes %v/%d", len(stream), ic.Family, ic.Length), n,
				func(k int) any { return ic.TopPrefixes(k) }, func(k int) any { return sortedTopPrefixes(ic, k) })
		}
		for _, fam := range []netaddr.Family{netaddr.IPv4, netaddr.IPv6} {
			n := len(sortedTopUsers(uc, fam, uc.Users()+1))
			check(fmt.Sprintf("%d records, TopUsersByAddrs %v", len(stream), fam), n,
				func(k int) any { return uc.TopUsersByAddrs(fam, k) }, func(k int) any { return sortedTopUsers(uc, fam, k) })
		}
	}
}
