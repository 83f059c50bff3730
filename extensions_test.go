package userv6

import (
	"testing"

	"userv6/internal/core"
	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
)

func TestBlocklistSweepShapes(t *testing.T) {
	sim := testSim(t)
	results := runFigure(sim, func(p *Paper) func() []BlocklistSweepResult {
		return p.BlocklistSweep(DefaultBlocklistPolicies())
	})
	if len(results) != len(DefaultBlocklistPolicies()) {
		t.Fatalf("results = %d", len(results))
	}
	byName := make(map[string]BlocklistSweepResult, len(results))
	for _, r := range results {
		if r.TPR < 0 || r.TPR > 1 || r.FPR < 0 || r.FPR > 1 {
			t.Fatalf("%s rates out of range: %+v", r.Policy.Name, r)
		}
		byName[r.Policy.Name] = r
	}
	// Longer TTLs never reduce recall at the same granularity and
	// threshold.
	if byName["/64 t=10% ttl=3"].TPR < byName["/64 t=10% ttl=1"].TPR {
		t.Fatalf("TTL-3 recall %.3f below TTL-1 %.3f",
			byName["/64 t=10% ttl=3"].TPR, byName["/64 t=10% ttl=1"].TPR)
	}
	// Stricter thresholds never raise FPR.
	if byName["/64 t=50% ttl=3"].FPR > byName["/64 t=10% ttl=3"].FPR {
		t.Fatal("threshold 50% has more collateral than 10%")
	}
	// /64 catches at least as much as /128.
	if byName["/64 t=10% ttl=3"].TPR < byName["/128 t=10% ttl=3"].TPR {
		t.Fatal("/64 recall below /128")
	}
}

func TestRateLimitSweepShapes(t *testing.T) {
	sim := testSim(t)
	caps := []int{1, 3, 10, 100}
	sweeps := runFigure(sim, func(p *Paper) func() [2][]core.RateLimitOutcome {
		v6, v4 := p.RateLimitSweep(netaddr.IPv6, 128, caps), p.RateLimitSweep(netaddr.IPv4, 32, caps)
		return func() [2][]core.RateLimitOutcome { return [2][]core.RateLimitOutcome{v6(), v4()} }
	})
	v6, v4 := sweeps[0], sweeps[1]
	if len(v6) != len(caps) || len(v4) != len(caps) {
		t.Fatal("sweep sizes wrong")
	}
	// Throttling decreases monotonically with the cap.
	for i := 1; i < len(caps); i++ {
		if v6[i].BenignShare > v6[i-1].BenignShare+1e-9 {
			t.Fatalf("v6 benign throttling not monotone: %+v", v6)
		}
		if v4[i].BenignShare > v4[i-1].BenignShare+1e-9 {
			t.Fatalf("v4 benign throttling not monotone: %+v", v4)
		}
	}
	// The paper's rate-limiting claim: a tight per-address cap hurts
	// far fewer benign users on IPv6 than on IPv4.
	if v6[1].BenignShare >= v4[1].BenignShare {
		t.Fatalf("cap=3 benign throttling: v6 %.4f >= v4 %.4f", v6[1].BenignShare, v4[1].BenignShare)
	}
	// At cap 3, v6 benign collateral is tiny (paper: <0.2% of addresses
	// exceed 3 users/day).
	if v6[1].BenignShare > 0.02 {
		t.Fatalf("v6 cap-3 benign throttling = %.4f", v6[1].BenignShare)
	}
}

func TestSegmentsShapes(t *testing.T) {
	sim := testSim(t)
	reports := runFigure(sim, (*Paper).Segments)
	byKind := make(map[netmodel.Kind]bool)
	var mobile, residential, enterprise *float64
	for i := range reports {
		r := reports[i]
		byKind[r.Kind] = true
		if r.Users <= 0 {
			t.Fatalf("segment %v has no users", r.Kind)
		}
		if r.V6UserShare < 0 || r.V6UserShare > 1 {
			t.Fatalf("segment %v share %v", r.Kind, r.V6UserShare)
		}
		switch r.Kind {
		case netmodel.Mobile:
			mobile = &reports[i].V6UserShare
		case netmodel.Residential:
			residential = &reports[i].V6UserShare
		case netmodel.Enterprise:
			enterprise = &reports[i].V6UserShare
		}
	}
	for _, want := range []netmodel.Kind{netmodel.Mobile, netmodel.Residential, netmodel.Enterprise} {
		if !byKind[want] {
			t.Fatalf("segment %v missing", want)
		}
	}
	// The appendix-B premise: enterprise < residential and mobile in
	// IPv6 deployment.
	if enterprise == nil || residential == nil || mobile == nil {
		t.Fatal("missing segment shares")
	}
	if *enterprise >= *residential || *enterprise >= *mobile {
		t.Fatalf("enterprise v6 share %.3f should trail residential %.3f and mobile %.3f",
			*enterprise, *residential, *mobile)
	}
}

func TestSketchedOutliersAgree(t *testing.T) {
	sim := testSim(t)
	r := runFigure(sim, func(p *Paper) func() SketchedOutliersResult { return p.SketchedOutliers(128) })
	if r.HeavyRecall < 0.7 {
		t.Fatalf("heavy recall = %v", r.HeavyRecall)
	}
	if r.TopError > 0.25 {
		t.Fatalf("top estimate error = %v", r.TopError)
	}
	if len(r.Top) == 0 {
		t.Fatal("no sketched top prefixes")
	}
	// Cardinality estimate within HLL error of the exact count.
	ratio := r.PrefixEstimate / float64(r.ExactPrefixes)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("prefix cardinality ratio = %v (est %v vs exact %d)", ratio, r.PrefixEstimate, r.ExactPrefixes)
	}
}

func TestTTLRecallCurveDecays(t *testing.T) {
	sim := testSim(t)
	curves := runFigure(sim, func(p *Paper) func() [3][]float64 {
		v6, v64, v4 := p.TTLRecallCurve(netaddr.IPv6, 128, 4), p.TTLRecallCurve(netaddr.IPv6, 64, 4), p.TTLRecallCurve(netaddr.IPv4, 32, 4)
		return func() [3][]float64 { return [3][]float64{v6(), v64(), v4()} }
	})
	v6, v64, v4 := curves[0], curves[1], curves[2]
	if len(v6) != 4 || len(v64) != 4 || len(v4) != 4 {
		t.Fatal("curve lengths wrong")
	}
	// /64 indicators outlast /128 indicators on day 1.
	if v64[0] <= v6[0] {
		t.Fatalf("day-1 recall: /64 %.3f <= /128 %.3f", v64[0], v6[0])
	}
	// IPv4 indicators hold the most value (paper: v4 addresses recur).
	if v4[0] <= v64[0] {
		t.Fatalf("day-1 recall: v4 %.3f <= /64 %.3f", v4[0], v64[0])
	}
	// Decay: day-4 v6 recall below day-1.
	if v6[3] > v6[0]+1e-9 {
		t.Fatalf("/128 recall grew with age: %v", v6)
	}
}

func TestChurnReasonsShapes(t *testing.T) {
	sim := testSim(t)
	b := runFigure(sim, (*Paper).ChurnReasons)
	if b.Total == 0 {
		t.Fatal("no churn attributed")
	}
	// Privacy rotation dominates new-address churn (the paper's §5.1
	// explanation for why users accumulate v6 addresses).
	if b.Share(0) < 0.4 {
		t.Fatalf("IID rotation share = %v, want dominant: %+v", b.Share(0), b)
	}
	// Every cause occurs.
	if b.SubnetMove == 0 || b.NetworkSwitch == 0 {
		t.Fatalf("missing causes: %+v", b)
	}
	shares := b.Share(0) + b.Share(1) + b.Share(2)
	if shares < 0.999 || shares > 1.001 {
		t.Fatalf("shares sum to %v", shares)
	}
}
