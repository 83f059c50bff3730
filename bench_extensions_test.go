package userv6

// Benchmarks for the extension experiments and the ablation studies
// DESIGN.md calls out: CGN pool size (drives the paper's v4 actioning
// asymmetry) and detection speed (drives the abusive lifespan skew).

import (
	"testing"

	"userv6/internal/core"
	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
)

// BenchmarkBlocklistSweep runs the multi-day TTL blocklist policies.
func BenchmarkBlocklistSweep(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		rs := runFigure(sim, func(p *Paper) func() []BlocklistSweepResult {
			return p.BlocklistSweep(DefaultBlocklistPolicies())
		})
		if i == b.N-1 {
			for _, r := range rs {
				if r.Policy.Name == "/64 t=10% ttl=3" {
					b.ReportMetric(r.TPR*100, "v6_64_ttl3_TPR_%")
					b.ReportMetric(r.FPR*100, "v6_64_ttl3_FPR_%")
				}
			}
		}
	}
}

// BenchmarkRateLimitSweep measures collateral at tight per-address caps.
func BenchmarkRateLimitSweep(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		sweeps := runFigure(sim, func(p *Paper) func() [2][]core.RateLimitOutcome {
			v6, v4 := p.RateLimitSweep(netaddr.IPv6, 128, []int{3}), p.RateLimitSweep(netaddr.IPv4, 32, []int{3})
			return func() [2][]core.RateLimitOutcome { return [2][]core.RateLimitOutcome{v6(), v4()} }
		})
		v6, v4 := sweeps[0], sweeps[1]
		if i == b.N-1 {
			b.ReportMetric(v6[0].BenignShare*100, "v6_cap3_benign_%")
			b.ReportMetric(v4[0].BenignShare*100, "v4_cap3_benign_%")
		}
	}
}

// BenchmarkSegments measures the per-network-kind breakdown.
func BenchmarkSegments(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		rs := runFigure(sim, (*Paper).Segments)
		if i == b.N-1 {
			for _, r := range rs {
				switch r.Kind {
				case netmodel.Mobile:
					b.ReportMetric(r.V6UserShare*100, "mobile_v6_%")
				case netmodel.Enterprise:
					b.ReportMetric(r.V6UserShare*100, "enterprise_v6_%")
				}
			}
		}
	}
}

// BenchmarkSketchedOutliers measures the fixed-memory pipeline and its
// agreement with exact counting.
func BenchmarkSketchedOutliers(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		r := runFigure(sim, func(p *Paper) func() SketchedOutliersResult { return p.SketchedOutliers(sketchLength) })
		if i == b.N-1 {
			b.ReportMetric(r.HeavyRecall*100, "heavy_recall_%")
			b.ReportMetric(r.TopError*100, "top_err_%")
		}
	}
}

// BenchmarkTTLRecallCurve measures threat-intel decay curves.
func BenchmarkTTLRecallCurve(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		v64 := runFigure(sim, func(p *Paper) func() []float64 { return p.TTLRecallCurve(netaddr.IPv6, 64, 3) })
		if i == b.N-1 && len(v64) == 3 {
			b.ReportMetric(v64[0]*100, "day1_recall_%")
			b.ReportMetric(v64[2]*100, "day3_recall_%")
		}
	}
}

// BenchmarkAblationMegaCGN quantifies the mega-CGN's role in the IPv4
// collateral story: growing Telkom-class pools from "tiny" to "ample"
// collapses the per-address benign populations and with them the v4
// actioning FPR.
func BenchmarkAblationMegaCGN(b *testing.B) {
	// Baseline is the default scenario; the ablated world regenerates
	// with mega-CGN pools widened to the normal carrier size.
	sim := NewSim(DefaultScenario(benchUsers))
	for _, c := range sim.World.Countries {
		if c.MobV4.ASN == 23693 { // Telkom-class mega pool
			c.MobV4.V4.PoolSize = 2500 * benchUsers / ReferenceUsers
			if c.MobV4.V4.PoolSize < 128 {
				c.MobV4.V4.PoolSize = 128
			}
		}
	}
	for i := 0; i < b.N; i++ {
		r := runFigure(sim, (*Paper).Fig11)
		if i == b.N-1 {
			if p, ok := r.Curves["IPv4"].At(0); ok {
				b.ReportMetric(p.FPR*100, "v4_FPR0_%")
				b.ReportMetric(p.TPR*100, "v4_TPR0_%")
			}
		}
	}
}

// BenchmarkAblationSlowDetection quantifies detection speed: with slow
// detection, abusive accounts live long and their address counts grow
// toward benign-like levels, washing out the Figure 3 contrast.
func BenchmarkAblationSlowDetection(b *testing.B) {
	sc := DefaultScenario(benchUsers)
	sc.Abuse.DetectFirstDay = 0.2
	sc.Abuse.SurvivorDailyDeath = 0.15
	sim := NewSim(sc)
	for i := 0; i < b.N; i++ {
		r := runFigure(sim, (*Paper).Fig3)
		if i == b.N-1 {
			b.ReportMetric(float64(r.WeekV4.Median()), "AA_v4_week_median")
			b.ReportMetric(float64(r.WeekV6.Median()), "AA_v6_week_median")
		}
	}
}

// BenchmarkScraperDefense measures logged-out request-rate limiting
// against IID-hopping scraper fleets.
func BenchmarkScraperDefense(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		rs := runFigure(sim, func(p *Paper) func() []ScraperDefenseResult { return p.ScraperDefense([]uint64{200}) })
		if i == b.N-1 {
			for _, r := range rs {
				switch r.Name {
				case "/128":
					b.ReportMetric(r.ScraperBlockShare*100, "v6_128_blocked_%")
				case "/64":
					b.ReportMetric(r.ScraperBlockShare*100, "v6_64_blocked_%")
				}
			}
		}
	}
}

// BenchmarkDetectHijacks measures the IP-novelty compromise detector.
func BenchmarkDetectHijacks(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		r := runFigure(sim, (*Paper).DetectHijacks)
		if i == b.N-1 {
			b.ReportMetric(r.Recall*100, "recall_%")
			b.ReportMetric(r.FalseAlarmShare*100, "false_alarm_%")
		}
	}
}

// BenchmarkChurnReasons measures the new-address cause attribution.
func BenchmarkChurnReasons(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		r := runFigure(sim, (*Paper).ChurnReasons)
		if i == b.N-1 {
			b.ReportMetric(r.Share(0)*100, "iid_rotation_%")
			b.ReportMetric(r.Share(1)*100, "subnet_move_%")
			b.ReportMetric(r.Share(2)*100, "network_switch_%")
		}
	}
}

// BenchmarkPandemic measures the Appendix A robustness comparison.
func BenchmarkPandemic(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		c := runFigure(sim, (*Paper).ComparePandemic)
		if i == b.N-1 {
			b.ReportMetric(float64(c.Pre.MedianV6Addrs), "pre_v6_median")
			b.ReportMetric(float64(c.Lockdown.MedianV6Addrs), "lockdown_v6_median")
		}
	}
}
