package userv6

import (
	"testing"

	"userv6/internal/core"
	"userv6/internal/netaddr"
	"userv6/internal/rng"
	"userv6/internal/telemetry"
)

// BenchmarkObserveOrder feeds the 8k-user analysis week, generated once
// into memory in file order, through the CLI analyze set (user-centric;
// IP-centric at v4/32, v6/128 and v6/64; churn) on one goroutine: once
// in file order and once under a seeded shuffle. same_user_share is the
// share of records whose user is the previous record's user, the case
// the analyzers' user tables serve without a lookup.
func BenchmarkObserveOrder(b *testing.B) {
	from, to := AnalysisWeek()
	var week []telemetry.Observation
	getBenchSim().Generate(from, to, func(o telemetry.Observation) { week = append(week, o) })
	shuffled := append([]telemetry.Observation(nil), week...)
	src := rng.New(1)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}

	for _, order := range []struct {
		name string
		recs []telemetry.Observation
	}{{"file", week}, {"shuffled", shuffled}} {
		b.Run(order.name, func(b *testing.B) {
			same := 0
			for i := 1; i < len(order.recs); i++ {
				if order.recs[i].UserID == order.recs[i-1].UserID {
					same++
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set := core.NewAnalyzerSet()
				uc := core.NewUserCentricFor(false)
				core.AddCommutativeAnalyzer(set, uc, func() *core.UserCentric { return core.NewUserCentricFor(false) }, (*core.UserCentric).Merge)
				for _, fl := range []struct {
					fam    netaddr.Family
					length int
				}{{netaddr.IPv4, 32}, {netaddr.IPv6, 128}, {netaddr.IPv6, 64}} {
					ic := core.NewIPCentric(fl.fam, fl.length)
					core.AddCommutativeAnalyzer(set, ic, func() *core.IPCentric { return core.NewIPCentric(fl.fam, fl.length) }, (*core.IPCentric).Merge)
				}
				churn := core.NewChurnAttribution(from + 1)
				core.AddCommutativeAnalyzer(set, churn, func() *core.ChurnAttribution { return core.NewChurnAttribution(from + 1) }, (*core.ChurnAttribution).Merge)
				for _, o := range order.recs {
					set.Observe(o)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(order.recs)), "ns/record")
			b.ReportMetric(float64(same)/float64(len(order.recs)-1), "same_user_share")
		})
	}
}
