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
)

func main() {
	sim := userv6.NewSim(userv6.DefaultScenario(20_000))
	paper := userv6.NewPaper(sim)

	// Day-0 indicators are the addresses (or /64s) that hosted an
	// abusive account on the analysis week's first day; each curve is
	// the share of day-k abusive accounts seen on one.
	const horizon = 5
	v128 := paper.TTLRecallCurve(netaddr.IPv6, 128, horizon)
	v64 := paper.TTLRecallCurve(netaddr.IPv6, 64, horizon)
	v4 := paper.TTLRecallCurve(netaddr.IPv4, 32, horizon)
	// Compare with the advisor's one-day decay estimate.
	advise := paper.Advise()
	paper.Run()

	r128, r64, r4 := v128(), v64(), v4()
	t := report.NewTable("days later", "IPv6 /128", "IPv6 /64", "IPv4 addr")
	for k := 0; k < horizon; k++ {
		t.Row(k+1, report.Percent(r128[k]), report.Percent(r64[k]), report.Percent(r4[k]))
	}
	fmt.Print("recall of day-0 indicators against later abusive activity:\n\n")
	t.Write(os.Stdout)

	a := advise(0.001)
	fmt.Printf("\nadvisor one-day decay estimate: %s of abusive activity is NOT covered next day\n",
		report.Percent(a.ThreatIntelDecay))
	fmt.Println("conclusion: share IPv6 indicators at /64 granularity and expire them fast.")
}
