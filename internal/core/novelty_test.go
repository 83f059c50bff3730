package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// TestIPNoveltyFlags checks the detector's rule on hand-made streams:
// a user is flagged when a hosting sighting falls on or after their
// first access day, and only users seen on an access network count.
// Each stream is fed in order, reversed, and split across two
// replicas folded both ways; all must answer alike.
func TestIPNoveltyFlags(t *testing.T) {
	const access, hosting = netmodel.ASN(10), netmodel.ASN(20)
	see := func(uid uint64, day simtime.Day, asn netmodel.ASN) telemetry.Observation {
		return telemetry.Observation{Day: day, UserID: uid, Addr: netaddr.AddrFrom4(0x0a000001), ASN: asn, Requests: 1}
	}
	for _, c := range []struct {
		name    string
		stream  []telemetry.Observation
		flagged []uint64
		users   int
	}{
		{"access, then a hijack sighting on the same day", []telemetry.Observation{see(1, 5, access), see(1, 5, hosting)}, []uint64{1}, 1},
		{"hosting on a day after the first access", []telemetry.Observation{see(1, 2, access), see(1, 7, hosting), see(1, 9, access)}, []uint64{1}, 1},
		{"hosting only on days before the first access", []telemetry.Observation{see(1, 3, hosting), see(1, 4, hosting), see(1, 5, access)}, nil, 1},
		{"hosting sightings only", []telemetry.Observation{see(1, 3, hosting), see(1, 9, hosting), see(2, 4, access)}, nil, 1},
		{"users apart", []telemetry.Observation{see(2, 1, access), see(1, 1, hosting), see(1, 2, access), see(3, 0, access), see(3, 0, hosting)}, []uint64{3}, 3},
	} {
		reversed := slices.Clone(c.stream)
		slices.Reverse(reversed)
		feed := func(stream []telemetry.Observation) *IPNovelty {
			n := NewIPNovelty(map[netmodel.ASN]bool{hosting: true})
			for _, o := range stream {
				n.Observe(o)
			}
			return n
		}
		split := func(intoFirst bool) *IPNovelty {
			half := len(c.stream) / 2
			a, b := feed(c.stream[:half]), feed(c.stream[half:])
			if intoFirst {
				a.Merge(b)
				return a
			}
			b.Merge(a)
			return b
		}
		for label, n := range map[string]*IPNovelty{
			"in order": feed(c.stream), "reversed": feed(reversed),
			"split, folded forward": split(true), "split, folded back": split(false),
		} {
			label = fmt.Sprintf("%s, %s", c.name, label)
			if got := n.Flagged(); !reflect.DeepEqual(got, c.flagged) {
				t.Errorf("%s: Flagged = %v, want %v", label, got, c.flagged)
			}
			if got := n.Users(); got != c.users {
				t.Errorf("%s: Users = %d, want %d", label, got, c.users)
			}
		}
	}
}
