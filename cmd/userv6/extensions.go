package main

import (
	"fmt"
	"os"

	"userv6"
	"userv6/internal/core"
	"userv6/internal/netaddr"
	"userv6/internal/report"
)

func init() {
	experimentOrder = append(experimentOrder,
		"segments", "blocklist-sweep", "ratelimit-sweep", "sketched", "ttlcurve")
	experiments["segments"] = experiment{"per-network-type behavior (§8 future work)", ownPass(runSegments)}
	experiments["blocklist-sweep"] = experiment{"multi-day blocklist policies with TTLs", ownPass(runBlocklistSweep)}
	experiments["ratelimit-sweep"] = experiment{"per-prefix entity caps vs collateral", ownPass(runRateLimitSweep)}
	experiments["sketched"] = experiment{"fixed-memory heavy-hitter pipeline vs exact", ownPass(runSketched)}
	experiments["ttlcurve"] = experiment{"indicator recall decay by age", ownPass(runTTLCurve)}
}

func runSegments(sim *userv6.Sim) {
	t := report.NewTable("network kind", "users", "v6 users", "v6 requests", "med v4 addrs", "med v6 addrs")
	for _, r := range sim.Segments() {
		t.Row(r.Kind.String(), r.Users, report.Percent(r.V6UserShare), report.Percent(r.V6ReqShare),
			r.MedianV4Addrs, r.MedianV6Addrs)
	}
	t.Write(os.Stdout)
}

func runBlocklistSweep(sim *userv6.Sim) {
	t := report.NewTable("policy", "TPR", "FPR", "final list size")
	for _, r := range sim.BlocklistSweep(userv6.DefaultBlocklistPolicies()) {
		t.Row(r.Policy.Name, report.Percent(r.TPR), report.Percent(r.FPR), r.FinalListSize)
	}
	t.Write(os.Stdout)
}

func runRateLimitSweep(sim *userv6.Sim) {
	caps := []int{1, 2, 3, 5, 10, 50}
	for _, g := range []struct {
		name   string
		fam    netaddr.Family
		length int
	}{
		{"IPv6 /128", netaddr.IPv6, 128},
		{"IPv6 /64", netaddr.IPv6, 64},
		{"IPv4 addr", netaddr.IPv4, 32},
	} {
		fmt.Printf("-- %s --\n", g.name)
		t := report.NewTable("cap", "benign throttled", "abusive throttled")
		for _, o := range sim.RateLimitSweep(g.fam, g.length, caps) {
			t.Row(o.Cap, report.Percent(o.BenignShare), report.Percent(o.AbusiveShare))
		}
		t.Write(os.Stdout)
		fmt.Println()
	}
}

func runSketched(sim *userv6.Sim) {
	r := sim.SketchedOutliers(128)
	fmt.Printf("prefix cardinality: sketched %.0f vs exact %d\n", r.PrefixEstimate, r.ExactPrefixes)
	fmt.Printf("heavy-hitter recall vs exact top-10: %s; top estimate error: %s\n\n",
		report.Percent(r.HeavyRecall), report.Percent(r.TopError))
	t := report.NewTable("#", "prefix", "est users", "sightings")
	for i, h := range r.Top {
		t.Row(i+1, h.Prefix.String(), fmt.Sprintf("%.0f", h.Users), h.Count)
	}
	t.Write(os.Stdout)
}

func runTTLCurve(sim *userv6.Sim) {
	const horizon = 5
	v128 := sim.TTLRecallCurve(netaddr.IPv6, 128, horizon)
	v64 := sim.TTLRecallCurve(netaddr.IPv6, 64, horizon)
	v4 := sim.TTLRecallCurve(netaddr.IPv4, 32, horizon)
	t := report.NewTable("age (days)", "IPv6 /128", "IPv6 /64", "IPv4")
	for k := 0; k < horizon; k++ {
		t.Row(k+1, report.Percent(v128[k]), report.Percent(v64[k]), report.Percent(v4[k]))
	}
	t.Write(os.Stdout)
	fmt.Println("\nindicator value decays fastest at /128; /64 buys roughly one extra day.")
}

func init() {
	experimentOrder = append(experimentOrder, "churn")
	experiments["churn"] = experiment{"causes of new IPv6 addresses (§8 future work)", ownPass(runChurn)}
}

func runChurn(sim *userv6.Sim) {
	b := sim.ChurnReasons()
	report.NewTable("cause", "new pairs", "share").
		Row("IID rotation (same /64)", b.IIDRotation, report.Percent(b.Share(0))).
		Row("subnet move (same /44)", b.SubnetMove, report.Percent(b.Share(1))).
		Row("network switch", b.NetworkSwitch, report.Percent(b.Share(2))).
		Write(os.Stdout)
	fmt.Printf("\n%d new (user, IPv6 address) pairs attributed\n", b.Total)
}

func init() {
	experimentOrder = append(experimentOrder, "fig12")
	experiments["fig12"] = experiment{"per-country IPv6 ratios (choropleth as table)", show((*userv6.Paper).CountryRatios, printFig12)}
}

func printFig12(rows []core.RatioRow) {
	t := report.NewTable("country", "v6 user ratio", "users")
	for _, row := range rows {
		t.Row(row.Country, report.Percent(row.Ratio), row.Users)
	}
	t.Write(os.Stdout)
}
