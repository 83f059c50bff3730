package core

import (
	"math"
	"testing"

	"userv6/internal/netmodel"
)

func TestFeatureExtractorBasics(t *testing.T) {
	infra := map[netmodel.ASN]bool{16276: true}
	fe := NewFeatureExtractor(infra)

	// Entity 1: dual-stack, 3 v6 addrs in one /64, one infra obs.
	o1 := obs(1, "2001:db8:0:1::a", 0, false)
	o1.Requests = 10
	fe.Observe(o1)
	fe.Observe(obs(1, "2001:db8:0:1::b", 1, false))
	fe.Observe(obs(1, "2001:db8:0:1::c", 2, false))
	fe.Observe(obs(1, "10.0.0.1", 0, false))
	infraObs := obs(1, "2a01::1", 3, false)
	infraObs.ASN = 16276
	fe.Observe(infraObs)

	v, ok := fe.Vector(1)
	if !ok {
		t.Fatal("entity missing")
	}
	if v.V4Addrs != 1 || v.V6Addrs != 4 || v.V6Prefixes64 != 2 {
		t.Fatalf("vector = %+v", v)
	}
	if !v.DualStack {
		t.Fatal("dual stack not detected")
	}
	if v.ActiveDays != 4 {
		t.Fatalf("active days = %d", v.ActiveDays)
	}
	if math.Abs(v.V6IIDSpread-2) > 1e-12 {
		t.Fatalf("spread = %v", v.V6IIDSpread)
	}
	if math.Abs(v.InfraShare-0.2) > 1e-12 {
		t.Fatalf("infra share = %v", v.InfraShare)
	}
	if v.Requests != 14 {
		t.Fatalf("requests = %d", v.Requests)
	}
	if _, ok := fe.Vector(999); ok {
		t.Fatal("phantom entity")
	}
}

func TestFeatureStructuredCount(t *testing.T) {
	fe := NewFeatureExtractor(nil)
	fe.Observe(obs(1, "2600:380:1:2::1f3a", 0, false))
	fe.Observe(obs(1, "2001:db8::a1b2:c3d4:e5f6:789a", 0, false))
	v, _ := fe.Vector(1)
	if v.StructuredV6 != 1 {
		t.Fatalf("structured = %d", v.StructuredV6)
	}
}

func TestAbuseScoreReference(t *testing.T) {
	// Hosting-dominated entity scores high.
	hot := FeatureVector{InfraShare: 0.9, Observations: 2}
	if hot.AbuseScore() < 2 {
		t.Fatalf("score = %v", hot.AbuseScore())
	}
	// A normal benign profile scores zero: active, access-network,
	// dual-stack with heavy IID spread (which must NOT penalize).
	benign := FeatureVector{
		V4Addrs: 2, V6Addrs: 12, V6Prefixes64: 2, V6IIDSpread: 6,
		Observations: 40, InfraShare: 0, DualStack: true,
	}
	if benign.AbuseScore() != 0 {
		t.Fatalf("benign score = %v", benign.AbuseScore())
	}
	// v4-only CGN churner picks up a mild score.
	churner := FeatureVector{V4Addrs: 5, Observations: 20}
	if churner.AbuseScore() != 0.75 {
		t.Fatalf("churner score = %v", churner.AbuseScore())
	}
}

func TestFeatureForEach(t *testing.T) {
	fe := NewFeatureExtractor(nil)
	fe.Observe(obs(1, "10.0.0.1", 0, false))
	fe.Observe(obs(2, "10.0.0.2", 0, false))
	n := 0
	fe.ForEach(func(uid uint64, v FeatureVector) {
		n++
		if v.V4Addrs != 1 {
			t.Fatalf("uid %d vector %+v", uid, v)
		}
	})
	if n != 2 {
		t.Fatalf("visited %d", n)
	}
}
