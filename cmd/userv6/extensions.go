package main

import (
	"fmt"
	"os"

	"userv6"
	"userv6/internal/core"
	"userv6/internal/netaddr"
	"userv6/internal/report"
)

func printSegments(reports []core.SegmentReport) {
	t := report.NewTable("network kind", "users", "v6 users", "v6 requests", "med v4 addrs", "med v6 addrs")
	for _, r := range reports {
		t.Row(r.Kind.String(), r.Users, report.Percent(r.V6UserShare), report.Percent(r.V6ReqShare),
			r.MedianV4Addrs, r.MedianV6Addrs)
	}
	t.Write(os.Stdout)
}

func printBlocklistSweep(results []userv6.BlocklistSweepResult) {
	t := report.NewTable("policy", "TPR", "FPR", "final list size")
	for _, r := range results {
		t.Row(r.Policy.Name, report.Percent(r.TPR), report.Percent(r.FPR), r.FinalListSize)
	}
	t.Write(os.Stdout)
}

func addRateLimitSweep(p *userv6.Paper) func() {
	caps := []int{1, 2, 3, 5, 10, 50}
	grans := []struct {
		name   string
		fam    netaddr.Family
		length int
	}{
		{"IPv6 /128", netaddr.IPv6, 128},
		{"IPv6 /64", netaddr.IPv6, 64},
		{"IPv4 addr", netaddr.IPv4, 32},
	}
	sweeps := make([]func() []core.RateLimitOutcome, len(grans))
	for i, g := range grans {
		sweeps[i] = p.RateLimitSweep(g.fam, g.length, caps)
	}
	return func() {
		for i, g := range grans {
			fmt.Printf("-- %s --\n", g.name)
			t := report.NewTable("cap", "benign throttled", "abusive throttled")
			for _, o := range sweeps[i]() {
				t.Row(o.Cap, report.Percent(o.BenignShare), report.Percent(o.AbusiveShare))
			}
			t.Write(os.Stdout)
			fmt.Println()
		}
	}
}

func printSketched(r userv6.SketchedOutliersResult) {
	fmt.Printf("prefix cardinality: sketched %.0f vs exact %d\n", r.PrefixEstimate, r.ExactPrefixes)
	fmt.Printf("heavy-hitter recall vs exact top-10: %s; top estimate error: %s\n\n",
		report.Percent(r.HeavyRecall), report.Percent(r.TopError))
	t := report.NewTable("#", "prefix", "est users", "sightings")
	for i, h := range r.Top {
		t.Row(i+1, h.Prefix.String(), fmt.Sprintf("%.0f", h.Users), h.Count)
	}
	t.Write(os.Stdout)
}

func addTTLCurve(p *userv6.Paper) func() {
	const horizon = 5
	v128 := p.TTLRecallCurve(netaddr.IPv6, 128, horizon)
	v64 := p.TTLRecallCurve(netaddr.IPv6, 64, horizon)
	v4 := p.TTLRecallCurve(netaddr.IPv4, 32, horizon)
	return func() {
		r128, r64, r4 := v128(), v64(), v4()
		t := report.NewTable("age (days)", "IPv6 /128", "IPv6 /64", "IPv4")
		for k := 0; k < horizon; k++ {
			t.Row(k+1, report.Percent(r128[k]), report.Percent(r64[k]), report.Percent(r4[k]))
		}
		t.Write(os.Stdout)
		fmt.Println("\nindicator value decays fastest at /128; /64 buys roughly one extra day.")
	}
}

func printChurn(b core.ChurnBreakdown) {
	report.NewTable("cause", "new pairs", "share").
		Row("IID rotation (same /64)", b.IIDRotation, report.Percent(b.Share(0))).
		Row("subnet move (same /44)", b.SubnetMove, report.Percent(b.Share(1))).
		Row("network switch", b.NetworkSwitch, report.Percent(b.Share(2))).
		Write(os.Stdout)
	fmt.Printf("\n%d new (user, IPv6 address) pairs attributed\n", b.Total)
}

func printFig12(rows []core.RatioRow) {
	t := report.NewTable("country", "v6 user ratio", "users")
	for _, row := range rows {
		t.Row(row.Country, report.Percent(row.Ratio), row.Users)
	}
	t.Write(os.Stdout)
}
