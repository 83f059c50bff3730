package userv6

// The benchmark harness: one testing.B benchmark per table and figure in
// the paper's evaluation. Each op registers its figure on a fresh Paper
// and runs it, regenerating the figure's own windows on the synthetic
// substrate; the last op's headline statistics are reported as custom
// benchmark metrics (so `go test -bench` output doubles as a results
// table; EXPERIMENTS.md records the paper-vs-measured comparison).
//
// Benchmarks intentionally run at a modest population so the full sweep
// completes quickly; scale up with the cmd/userv6 harness for tighter
// numbers.

import (
	"sync"
	"testing"

	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

const benchUsers = 8_000

var (
	benchSimOnce sync.Once
	benchSim     *Sim
)

func getBenchSim() *Sim {
	benchSimOnce.Do(func() {
		benchSim = NewSim(DefaultScenario(benchUsers))
	})
	return benchSim
}

// BenchmarkFig1 regenerates the daily IPv6 prevalence series over the
// study window (Figure 1).
func BenchmarkFig1(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		days := runFigure(sim, (*Paper).Fig1)
		if i == b.N-1 {
			last := days[len(days)-1]
			b.ReportMetric(last.UserShare*100, "userV6_%")
			b.ReportMetric(last.ReqShare*100, "reqV6_%")
		}
	}
}

// BenchmarkTable1 regenerates the top-ASN IPv6 ratio table (Table 1).
func BenchmarkTable1(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		r := runFigure(sim, (*Paper).Table1)
		if i == b.N-1 && len(r.Rows) > 0 {
			b.ReportMetric(r.Rows[0].Ratio*100, "topASN_ratio_%")
			b.ReportMetric(r.ZeroShare*100, "zeroV6_ASNs_%")
			b.ReportMetric(r.UnderTenShare*100, "under10_ASNs_%")
		}
	}
}

// BenchmarkTable2 regenerates the country ratio comparison (Table 2 /
// Figure 12).
func BenchmarkTable2(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		r := runFigure(sim, (*Paper).Table2)
		if i == b.N-1 {
			b.ReportMetric(r.April[0].Ratio*100, "topCountry_%")
			b.ReportMetric((r.GermanyApr-r.GermanyJan)*100, "germany_shift_pp")
		}
	}
}

// BenchmarkClientAddrPatterns regenerates the §4.4 address structure
// summary.
func BenchmarkClientAddrPatterns(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		p := runFigure(sim, (*Paper).ClientAddrPatterns)
		if i == b.N-1 {
			b.ReportMetric(p.EUI64Share*100, "eui64_%")
			b.ReportMetric(p.EUI64IIDReuse*100, "iid_reuse_%")
			b.ReportMetric((p.TeredoShare+p.SixToFourShare)*100, "transition_%")
		}
	}
}

// BenchmarkFig2 regenerates addresses-per-user (Figure 2).
func BenchmarkFig2(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		r := runFigure(sim, (*Paper).Fig2)
		if i == b.N-1 {
			b.ReportMetric(float64(r.WeekV4.Median()), "v4_week_median")
			b.ReportMetric(float64(r.WeekV6.Median()), "v6_week_median")
			b.ReportMetric(r.DayV4.CDFAt(1)*100, "v4_day_single_%")
			b.ReportMetric(r.DayV6.CDFAt(1)*100, "v6_day_single_%")
		}
	}
}

// BenchmarkFig3 regenerates addresses-per-abusive-account (Figure 3).
func BenchmarkFig3(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		r := runFigure(sim, (*Paper).Fig3)
		if i == b.N-1 {
			b.ReportMetric(r.DayV4.CDFAt(1)*100, "v4_day_single_%")
			b.ReportMetric(r.DayV6.CDFAt(1)*100, "v6_day_single_%")
		}
	}
}

// BenchmarkFig4 regenerates prefixes-per-entity (Figure 4a/4b).
func BenchmarkFig4(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		r := runFigure(sim, (*Paper).Fig4)
		if i == b.N-1 {
			for _, s := range r.Users {
				switch s.Length {
				case 64:
					b.ReportMetric(s.One*100, "users_one64_%")
				case 128:
					b.ReportMetric(s.One*100, "users_one128_%")
				}
			}
		}
	}
}

// BenchmarkFig5 regenerates address lifespans (Figure 5).
func BenchmarkFig5(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		r := runFigure(sim, benignLifespans)
		if i == b.N-1 {
			b.ReportMetric(r.AgeV4.CDFAt(0)*100, "v4_fresh_%")
			b.ReportMetric(r.AgeV6.CDFAt(0)*100, "v6_fresh_%")
			b.ReportMetric(r.AgeV4.FracAbove(7)*100, "v4_gt7d_%")
			b.ReportMetric(r.AgeV6.FracAbove(7)*100, "v6_gt7d_%")
		}
	}
}

// BenchmarkFig6 regenerates prefix lifespans (Figure 6a/6b).
func BenchmarkFig6(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		r := runFigure(sim, benignLifespans)
		if i == b.N-1 {
			for _, fs := range r.FreshV6 {
				switch fs.Length {
				case 64:
					b.ReportMetric(fs.Within1*100, "v6_64_fresh1d_%")
				case 128:
					b.ReportMetric(fs.Within1*100, "v6_128_fresh1d_%")
				}
			}
			for _, fs := range r.FreshV4 {
				if fs.Length == 32 {
					b.ReportMetric(fs.Within1*100, "v4_32_fresh1d_%")
				}
			}
		}
	}
}

// BenchmarkFig7 regenerates users-per-address (Figure 7).
func BenchmarkFig7(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		r := runFigure(sim, (*Paper).IPCentricWeek)
		if i == b.N-1 {
			b.ReportMetric(r.V4.UsersPerPrefix().CDFAt(1)*100, "v4_single_%")
			b.ReportMetric(r.V6[128].UsersPerPrefix().CDFAt(1)*100, "v6_single_%")
		}
	}
}

// BenchmarkFig8 regenerates populations on abusive addresses (Figure 8).
func BenchmarkFig8(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		r := runFigure(sim, (*Paper).IPCentricWeek)
		if i == b.N-1 {
			b.ReportMetric(r.V4.AbusivePerAbusivePrefix().CDFAt(1)*100, "v4_1AA_%")
			b.ReportMetric(r.V6[128].AbusivePerAbusivePrefix().CDFAt(1)*100, "v6_1AA_%")
			b.ReportMetric(r.V6[128].BenignPerAbusivePrefix().CDFAt(0)*100, "v6_0benign_%")
			b.ReportMetric(r.V4.BenignPerAbusivePrefix().FracAbove(10)*100, "v4_gt10benign_%")
		}
	}
}

// BenchmarkFig9 regenerates users-per-prefix by length (Figure 9).
func BenchmarkFig9(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		r := runFigure(sim, (*Paper).IPCentricWeek)
		if i == b.N-1 {
			b.ReportMetric(r.V6[64].UsersPerPrefix().CDFAt(1)*100, "v6_64_single_%")
			b.ReportMetric(r.V6[48].UsersPerPrefix().CDFAt(1)*100, "v6_48_single_%")
			b.ReportMetric(r.V4.UsersPerPrefix().CDFAt(1)*100, "v4_single_%")
		}
	}
}

// BenchmarkFig10 regenerates abusive populations per prefix (Fig 10).
func BenchmarkFig10(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		r := runFigure(sim, (*Paper).IPCentricWeek)
		if i == b.N-1 {
			b.ReportMetric(r.V6[64].AbusivePerAbusivePrefix().CDFAt(1)*100, "v6_64_1AA_%")
			b.ReportMetric(r.V6[56].AbusivePerAbusivePrefix().CDFAt(1)*100, "v6_56_1AA_%")
			b.ReportMetric(r.V6[64].BenignPerAbusivePrefix().CDFAt(1)*100, "v6_64_le1benign_%")
		}
	}
}

// BenchmarkFig11 regenerates the actioning ROC curves (Figure 11).
func BenchmarkFig11(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		r := runFigure(sim, (*Paper).Fig11)
		if i == b.N-1 {
			if p, ok := r.Curves["/128"].At(0); ok {
				b.ReportMetric(p.TPR*100, "v6_128_TPR0_%")
			}
			if p, ok := r.Curves["/64"].At(0); ok {
				b.ReportMetric(p.TPR*100, "v6_64_TPR0_%")
			}
			if p, ok := r.Curves["IPv4"].At(0); ok {
				b.ReportMetric(p.TPR*100, "v4_TPR0_%")
				b.ReportMetric(p.FPR*100, "v4_FPR0_%")
			}
		}
	}
}

// BenchmarkOutliers regenerates the RQ3 outlier summary (§5.1.3/§6.1.3).
func BenchmarkOutliers(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		r := runFigure(sim, (*Paper).Outliers)
		if i == b.N-1 {
			b.ReportMetric(float64(r.V4MaxUsers), "v4_max_users")
			b.ReportMetric(float64(r.V6MaxUsers), "v6_max_users")
			b.ReportMetric(r.V6Concentration.TopASNShare*100, "heavy_topASN_%")
		}
	}
}

// BenchmarkAdvise regenerates the §7.2 policy advisor end to end.
func BenchmarkAdvise(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		paper := NewPaper(sim)
		advise := paper.Advise()
		paper.Run()
		a := advise(0.001)
		if i == b.N-1 {
			b.ReportMetric(float64(a.BlocklistGranularity), "granularity")
			b.ReportMetric(float64(a.BlocklistTTLDays), "ttl_days")
		}
	}
}

// BenchmarkPaperAll times one Run with every paper figure registered,
// and the reads of every result: the whole reproduction from one
// generation pass (informational; no bench gate runs it).
func BenchmarkPaperAll(b *testing.B) {
	sim := getBenchSim()
	for i := 0; i < b.N; i++ {
		paper := NewPaper(sim)
		reads := make([]func() any, len(paperFigures))
		for j, f := range paperFigures {
			reads[j] = f.register(paper)
		}
		paper.Run()
		for _, read := range reads {
			read()
		}
	}
}

// benignLifespans registers Figures 5 and 6 for benign users.
func benignLifespans(p *Paper) func() LifespanResult { return p.Fig5And6(false) }

// BenchmarkGenerateWeek measures raw telemetry generation throughput.
func BenchmarkGenerateWeek(b *testing.B) {
	sim := getBenchSim()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = 0
		sim.Generate(simtime.AnalysisWeekStart, simtime.AnalysisWeekEnd, func(o telemetry.Observation) { n++ })
	}
	b.ReportMetric(float64(n), "observations")
}

// BenchmarkNewSim measures world + population construction.
func BenchmarkNewSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = NewSim(DefaultScenario(benchUsers))
	}
}

// BenchmarkAblationNoGateways quantifies the gateway carrier's role in
// the heavy-outlier finding: without it, the heavy IPv6 population
// collapses (the DESIGN.md ablation on structured-IID gateways).
func BenchmarkAblationNoGateways(b *testing.B) {
	sc := DefaultScenario(benchUsers)
	sc.Abuse.GatewayW = 0
	sim := NewSim(sc)
	for i := 0; i < b.N; i++ {
		r := runFigure(sim, (*Paper).Outliers)
		if i == b.N-1 {
			b.ReportMetric(float64(r.V6HeavyAddrs), "v6_heavy_addrs")
		}
	}
}

// BenchmarkAblationNoIIDRotation quantifies privacy-extension rotation:
// freezing IIDs collapses the v6 address-per-user and lifespan gaps.
func BenchmarkAblationNoIIDRotation(b *testing.B) {
	sc := DefaultScenario(benchUsers)
	sim := NewSim(sc)
	// Freeze rotation by reconfiguring every SLAAC network in place.
	for _, n := range sim.World.Networks() {
		if n.V6.IIDRotationDays > 0 {
			n.V6.IIDRotationDays = 0
		}
	}
	for i := 0; i < b.N; i++ {
		r := runFigure(sim, benignLifespans)
		if i == b.N-1 {
			b.ReportMetric(r.AgeV6.CDFAt(0)*100, "v6_fresh_%")
		}
	}
}
