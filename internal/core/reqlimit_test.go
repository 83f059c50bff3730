package core

import (
	"fmt"
	"slices"
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/rng"
	"userv6/internal/telemetry"
)

// feedRequestLoad feeds stream to a fresh RequestLoad at granularity g,
// split block-wise across replicas (block b to replica b mod replicas,
// so prefix-days straddle replicas) and folded with Merge, in replica
// order or reversed.
func feedRequestLoad(g famLength, stream []telemetry.Observation, replicas int, reversed bool) *RequestLoad {
	reps := make([]*RequestLoad, replicas)
	for i := range reps {
		reps[i] = NewRequestLoad(g.fam, g.length)
	}
	for i, o := range stream {
		reps[i/53%replicas].Observe(o)
	}
	if reversed {
		slices.Reverse(reps)
	}
	load := NewRequestLoad(g.fam, g.length)
	for _, r := range reps {
		load.Merge(r)
	}
	return load
}

// TestRequestLoadMatchesReference: RequestLoad's Limit answers as the
// request limiter it replaced. On oracle streams, RequestRateLimit is
// fed every benign observation first and then the abusive ones, the
// order the scraper experiment fed it (a day's benign traffic, then
// the scrapers'). RequestLoad is fed the stream shuffled, split across
// 1, 3 and 8 replicas folded forward and reversed, and must give the
// reference's four tallies at every cap, a cap of 1 and one the
// traffic rarely reaches among them.
func TestRequestLoadMatchesReference(t *testing.T) {
	caps := []uint64{0, 1, 2, 7, 100}
	grans := []famLength{{netaddr.IPv6, 128}, {netaddr.IPv6, 64}, {netaddr.IPv6, 44}, {netaddr.IPv4, 32}}
	var benignThrottled, abusiveThrottled uint64
	for _, seed := range []uint64{1, 2} {
		stream := oracleStream(seed, 300, 4, 200)
		benignFirst := slices.Clone(stream)
		slices.SortStableFunc(benignFirst, func(a, b telemetry.Observation) int {
			return boolIndex(a.Abusive) - boolIndex(b.Abusive)
		})
		recs := shuffled(rng.New(seed*41), stream)
		for _, g := range grans {
			want := make([]RequestTallies, len(caps))
			for i, c := range caps {
				ref := NewRequestRateLimit(g.fam, g.length, c)
				for _, o := range benignFirst {
					ref.Observe(o)
				}
				want[i] = RequestTallies{ref.BenignAdmitted, ref.BenignThrottled, ref.AbusiveAdmitted, ref.AbusiveThrottled}
				benignThrottled += ref.BenignThrottled
				abusiveThrottled += ref.AbusiveThrottled
			}
			for _, replicas := range []int{1, 3, 8} {
				for _, reversed := range []bool{false, true} {
					load := feedRequestLoad(g, recs, replicas, reversed)
					for i, c := range caps {
						label := fmt.Sprintf("seed %d, %v /%d, %d replicas, reversed=%v", seed, g.fam, g.length, replicas, reversed)
						if got := load.Limit(c); got != want[i] {
							t.Fatalf("%s: Limit(%d) = %+v, want %+v", label, c, got, want[i])
						}
					}
				}
			}
		}
	}
	if benignThrottled == 0 || abusiveThrottled == 0 {
		t.Fatalf("degenerate references: %d benign and %d abusive requests throttled", benignThrottled, abusiveThrottled)
	}
}
