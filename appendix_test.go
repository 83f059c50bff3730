package userv6

import (
	"math"
	"testing"
)

// TestPandemicRobustness reproduces Appendix A: the lockdown shifts the
// metrics only slightly, so the paper's (and our) conclusions hold in
// both regimes.
func TestPandemicRobustness(t *testing.T) {
	sim := testSim(t)
	c := runFigure(sim, (*Paper).ComparePandemic)

	if c.Pre.From == c.Lockdown.From {
		t.Fatal("windows identical")
	}
	// Medians move by at most 2 either way.
	if d := absInt(c.Pre.MedianV4Addrs - c.Lockdown.MedianV4Addrs); d > 2 {
		t.Fatalf("v4 median moved by %d: %+v", d, c)
	}
	if d := absInt(c.Pre.MedianV6Addrs - c.Lockdown.MedianV6Addrs); d > 2 {
		t.Fatalf("v6 median moved by %d: %+v", d, c)
	}
	// The v6 > v4 ordering holds in both regimes.
	if c.Pre.MedianV6Addrs < c.Pre.MedianV4Addrs || c.Lockdown.MedianV6Addrs < c.Lockdown.MedianV4Addrs {
		t.Fatalf("ordering broke: %+v", c)
	}
	// Freshness gap persists in both regimes.
	for _, w := range []PandemicWindowMetrics{c.Pre, c.Lockdown} {
		if w.FreshV6 < w.FreshV4+0.2 {
			t.Fatalf("freshness gap missing in window %d-%d: %+v", w.From, w.To, w)
		}
	}
	// Appendix A.5: lifespans slightly LONGER during lockdown (users
	// more stationary) — fresh shares drop or stay level, within a few
	// points.
	if c.Lockdown.FreshV4 > c.Pre.FreshV4+0.05 {
		t.Fatalf("v4 freshness rose under lockdown: %+v", c)
	}
	// /64 spans stable within a few points (Appendix A.4).
	if math.Abs(c.Pre.SingleSlash64Share-c.Lockdown.SingleSlash64Share) > 0.08 {
		t.Fatalf("/64 span share moved too much: %+v", c)
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
