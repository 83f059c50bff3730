package main

import (
	"fmt"
	"os"

	"userv6"
	"userv6/internal/report"
)

func printScrapers(results []userv6.ScraperDefenseResult) {
	t := report.NewTable("granularity", "budget/day", "scraper volume blocked", "benign volume lost")
	for _, r := range results {
		t.Row(r.Name, r.CapPerDay, report.Percent(r.ScraperBlockShare), report.Percent(r.BenignLossShare))
	}
	t.Write(os.Stdout)
	fmt.Println("\nIID-hopping defeats per-address caps; /64 budgets recover the lost volume.")
}

func printHijacks(r userv6.HijackDetectionResult) {
	report.NewTable("metric", "value").
		Row("compromised accounts", r.Victims).
		Row("detected by IP novelty", r.Detected).
		Row("recall", report.Percent(r.Recall)).
		Row("false alarms", r.FalseAlarms).
		Row("false-alarm share of users", report.Percent(r.FalseAlarmShare)).
		Write(os.Stdout)
	fmt.Println("\ndetector: established account suddenly on hosting/proxy space.")
}

func printPandemic(c userv6.PandemicComparison) {
	t := report.NewTable("metric", "pre-lockdown (Feb)", "lockdown (Apr)")
	t.Row("median v4 addrs/user", c.Pre.MedianV4Addrs, c.Lockdown.MedianV4Addrs)
	t.Row("median v6 addrs/user", c.Pre.MedianV6Addrs, c.Lockdown.MedianV6Addrs)
	t.Row("single-/64 users", report.Percent(c.Pre.SingleSlash64Share), report.Percent(c.Lockdown.SingleSlash64Share))
	t.Row("day-fresh v4 pairs", report.Percent(c.Pre.FreshV4), report.Percent(c.Lockdown.FreshV4))
	t.Row("day-fresh v6 pairs", report.Percent(c.Pre.FreshV6), report.Percent(c.Lockdown.FreshV6))
	t.Write(os.Stdout)
	fmt.Println("\nshifts are small: the study's conclusions hold in both regimes (Appendix A).")
}
