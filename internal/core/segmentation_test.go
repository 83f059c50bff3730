package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"userv6/internal/netmodel"
	"userv6/internal/telemetry"
)

func segObs(uid uint64, addr string, asn netmodel.ASN, reqs uint32) telemetry.Observation {
	o := obs(uid, addr, 0, false)
	o.ASN = asn
	o.Requests = reqs
	return o
}

func TestSegmentationBasic(t *testing.T) {
	kinds := map[netmodel.ASN]netmodel.Kind{
		10: netmodel.Mobile,
		20: netmodel.Residential,
	}
	seg := NewSegmentation(ClassifyByASN(kinds))
	// Mobile: user 1 dual stack (2 v6 addrs), user 2 v4-only.
	seg.Observe(segObs(1, "2001:db8::1", 10, 5))
	seg.Observe(segObs(1, "2001:db8::2", 10, 5))
	seg.Observe(segObs(1, "10.0.0.1", 10, 10))
	seg.Observe(segObs(2, "10.0.0.2", 10, 10))
	// Residential: user 3 v6.
	seg.Observe(segObs(3, "2001:db8:1::1", 20, 4))
	// Unknown ASN dropped.
	seg.Observe(segObs(4, "10.9.9.9", 99, 1))

	reports := seg.Report()
	if len(reports) != 2 || reports[0].Kind != netmodel.Residential || reports[1].Kind != netmodel.Mobile {
		t.Fatalf("segments = %+v, want residential and mobile", reports)
	}
	res, mob := reports[0], reports[1]
	if mob.Users != 2 {
		t.Fatalf("mobile users = %d", mob.Users)
	}
	if math.Abs(mob.V6UserShare-0.5) > 1e-12 {
		t.Fatalf("mobile v6 user share = %v", mob.V6UserShare)
	}
	if math.Abs(mob.V6ReqShare-10.0/30) > 1e-12 {
		t.Fatalf("mobile v6 req share = %v", mob.V6ReqShare)
	}
	if mob.MedianV6Addrs != 2 || mob.MedianV4Addrs != 1 {
		t.Fatalf("mobile medians = %d/%d", mob.MedianV6Addrs, mob.MedianV4Addrs)
	}
	if res.Users != 1 || res.V6UserShare != 1 {
		t.Fatalf("residential = %+v", res)
	}
}

func TestSegmentationDedup(t *testing.T) {
	kinds := map[netmodel.ASN]netmodel.Kind{10: netmodel.Mobile}
	seg := NewSegmentation(ClassifyByASN(kinds))
	for i := 0; i < 5; i++ {
		seg.Observe(segObs(1, "2001:db8::1", 10, 1))
	}
	mob := seg.Report()[0]
	if mob.MedianV6Addrs != 1 {
		t.Fatalf("median v6 addrs = %d (dedup failed)", mob.MedianV6Addrs)
	}
	// Requests still accumulate per observation.
	if math.Abs(mob.V6ReqShare-1) > 1e-12 {
		t.Fatalf("req share = %v", mob.V6ReqShare)
	}
}

func TestSegmentationInvalidAddr(t *testing.T) {
	seg := NewSegmentation(func(telemetry.Observation) (netmodel.Kind, bool) { return netmodel.Mobile, true })
	seg.Observe(telemetry.Observation{UserID: 1, Requests: 1})
	if len(seg.Report()) != 0 {
		t.Fatal("invalid address created a segment")
	}
}

// TestSegmentationMergeMatchesSequential: the oracle stream split across
// replicas and folded with Merge, in either order, reports as the
// stream fed to one Segmentation does.
func TestSegmentationMergeMatchesSequential(t *testing.T) {
	stream := oracleStream(1, 200, 7, 60)
	seq := NewSegmentation(ClassifyByASN(lawKinds))
	for _, o := range stream {
		seq.Observe(o)
	}
	want := seq.Report()
	if len(want) < 3 {
		t.Fatalf("degenerate reference: %+v", want)
	}
	for _, reversed := range []bool{false, true} {
		reps := make([]*Segmentation, 3)
		for i := range reps {
			reps[i] = NewSegmentation(ClassifyByASN(lawKinds))
		}
		for i, o := range stream {
			reps[i/37%3].Observe(o)
		}
		if reversed {
			slices.Reverse(reps)
		}
		got := NewSegmentation(ClassifyByASN(lawKinds))
		for _, r := range reps {
			got.Merge(r)
		}
		if g := got.Report(); !reflect.DeepEqual(g, want) {
			t.Fatalf("reversed=%v: folded report\n got %+v\nwant %+v", reversed, g, want)
		}
	}
}
