// Threat-exchange value decay: how fast do shared IPv6 indicators go
// stale? The paper (§7.2) concludes that intelligence on abusive IPv6
// addresses degrades within a day; this example measures indicator
// half-life directly by re-evaluating day-n indicators on each following
// day.
//
// Run with: go run ./examples/threatexchange
package main

import (
	"fmt"
	"os"

	"userv6"
	"userv6/internal/netaddr"
	"userv6/internal/report"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

func main() {
	sim := userv6.NewSim(userv6.DefaultScenario(20_000))
	day0 := simtime.AnalysisWeekStart

	// Collect day-0 indicators: every address (or /64) that hosted an
	// abusive account.
	type granularity struct {
		name   string
		fam    netaddr.Family
		length int
	}
	grans := []granularity{
		{"IPv6 /128", netaddr.IPv6, 128},
		{"IPv6 /64", netaddr.IPv6, 64},
		{"IPv4 addr", netaddr.IPv4, 32},
	}
	indicators := make([]map[netaddr.Prefix]struct{}, len(grans))
	for i := range indicators {
		indicators[i] = make(map[netaddr.Prefix]struct{})
	}
	sim.Abusive.GenerateDay(day0, func(o telemetry.Observation) {
		for i, g := range grans {
			if o.Addr.Family() == g.fam {
				indicators[i][netaddr.PrefixFrom(o.Addr, g.length)] = struct{}{}
			}
		}
	})

	// For each subsequent day, what fraction of that day's abusive
	// accounts appear on a day-0 indicator?
	t := report.NewTable("days later", grans[0].name, grans[1].name, grans[2].name)
	for offset := simtime.Day(1); offset <= 5; offset++ {
		day := day0 + offset
		caught := make([]map[uint64]struct{}, len(grans))
		total := make([]map[uint64]struct{}, len(grans))
		for i := range grans {
			caught[i] = make(map[uint64]struct{})
			total[i] = make(map[uint64]struct{})
		}
		sim.Abusive.GenerateDay(day, func(o telemetry.Observation) {
			for i, g := range grans {
				if o.Addr.Family() != g.fam {
					continue
				}
				total[i][o.UserID] = struct{}{}
				if _, hit := indicators[i][netaddr.PrefixFrom(o.Addr, g.length)]; hit {
					caught[i][o.UserID] = struct{}{}
				}
			}
		})
		row := []any{int(offset)}
		for i := range grans {
			if len(total[i]) == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, report.Percent(float64(len(caught[i]))/float64(len(total[i]))))
		}
		t.Row(row...)
	}
	fmt.Printf("recall of day-0 indicators against later abusive activity (%d /128, %d /64, %d v4 indicators):\n\n",
		len(indicators[0]), len(indicators[1]), len(indicators[2]))
	t.Write(os.Stdout)

	// Compare with the advisor's one-day decay estimate.
	paper := userv6.NewPaper(sim)
	advise := paper.Advise()
	paper.Run()
	a := advise(0.001)
	fmt.Printf("\nadvisor one-day decay estimate: %s of abusive activity is NOT covered next day\n",
		report.Percent(a.ThreatIntelDecay))
	fmt.Println("conclusion: share IPv6 indicators at /64 granularity and expire them fast.")
}
