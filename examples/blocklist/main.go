// Blocklist policy evaluation: pick an IPv6 blocklisting granularity and
// threshold for an operator's false-positive budget, the §7.1/§7.2
// workflow.
//
// The program simulates day-n actioning evaluated on day n+1 at every
// granularity the paper considers, prints the operating points, and asks
// the policy advisor for a recommendation at three FPR tolerances.
//
// Run with: go run ./examples/blocklist
package main

import (
	"fmt"
	"os"

	"userv6"
	"userv6/internal/report"
)

func main() {
	paper := userv6.NewPaper(userv6.NewSim(userv6.DefaultScenario(20_000)))
	fig11, advise := paper.Fig11(), paper.Advise()
	paper.Run()

	roc := fig11()
	fmt.Printf("actioning simulation: day %s -> day %s\n\n", roc.DayN, roc.DayN1)

	t := report.NewTable("granularity", "AUC", "TPR@0.01% FPR", "TPR@0.1% FPR", "TPR@1% FPR")
	for _, g := range userv6.Fig11Granularities() {
		curve := roc.Curves[g.Name]
		row := []any{g.Name, curve.AUC()}
		for _, tol := range []float64{0.0001, 0.001, 0.01} {
			if tpr, ok := curve.TPRAtFPR(tol); ok {
				row = append(row, report.Percent(tpr))
			} else {
				row = append(row, "-")
			}
		}
		t.Row(row...)
	}
	t.Write(os.Stdout)

	fmt.Println("\npolicy advisor:")
	for _, tol := range []float64{0.0001, 0.001, 0.01} {
		a := advise(tol)
		fmt.Printf("  at %s FPR budget: block /%d prefixes, TTL %d day(s), recall %s\n",
			report.Percent(tol), a.BlocklistGranularity, a.BlocklistTTLDays, report.Percent(a.BlocklistTPR))
	}

	a := advise(0.001)
	fmt.Printf("\nexisting IPv4 blocklist policies translate to IPv6 /%d prefixes\n", a.BlocklistV4EquivalentLength)
	if a.V6BeatsV4BelowFPR {
		fmt.Println("at low FPR operating points, IPv6 actioning outperforms IPv4 — as the paper found")
	}
}
