// Command userv6 regenerates every table and figure of "Towards A
// User-Level Understanding of IPv6 Behavior" (IMC 2020) on the synthetic
// substrate, printing the same rows and series the paper reports.
//
// Usage:
//
//	userv6 [-users N] [-seed S] <experiment>
//
// `userv6 -h` lists the experiments, which userv6.Experiments defines;
// `all` runs every one.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"sort"

	"userv6"
	"userv6/internal/core"
	"userv6/internal/report"
	"userv6/internal/simtime"
	"userv6/internal/stats"
)

func main() {
	users := flag.Int("users", 40_000, "benign population size")
	seed := flag.Uint64("seed", 1, "scenario seed")
	width := len("all")
	for _, e := range userv6.Experiments {
		width = max(width, len(e.Name))
	}
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: userv6 [-users N] [-seed S] <experiment>\n\nexperiments:\n")
		for _, e := range userv6.Experiments {
			fmt.Fprintf(os.Stderr, "  %-*s %s\n", width, e.Name, e.Desc)
		}
		fmt.Fprintf(os.Stderr, "  %-*s %s\n", width, "all", "run every experiment")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *users < 1 {
		fmt.Fprintf(os.Stderr, "userv6: -users must be at least 1, got %d\n", *users)
		os.Exit(2)
	}
	name := flag.Arg(0)
	exps := userv6.Experiments
	if name != "all" {
		i := slices.IndexFunc(exps, func(e userv6.Experiment) bool { return e.Name == name })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			flag.Usage()
			os.Exit(2)
		}
		exps = exps[i : i+1]
	}

	sim := userv6.NewSim(userv6.DefaultScenario(*users).WithSeed(*seed))
	fmt.Printf("# userv6: %d users, seed %d (reference scale %.2f)\n\n", *users, *seed, sim.Scenario.Scale())

	// Register every requested experiment, feed them all from the
	// paper's one generation pass, then print. The readers hold what
	// their experiment reads, not the paper.
	paper := userv6.NewPaper(sim)
	reads := make([]func() any, len(exps))
	for i, e := range exps {
		reads[i] = e.Register(paper)
	}
	paper.Run()
	for i, e := range exps {
		if name == "all" {
			fmt.Printf("== %s: %s ==\n", e.Name, e.Desc)
		}
		// The printer takes the result's dynamic type.
		reflect.ValueOf(printers[e.Name]).Call([]reflect.Value{reflect.ValueOf(reads[i]())})
		if name == "all" {
			fmt.Println()
		}
		// Drop the printed experiment's reader, so that analyzers no
		// later experiment reads can be collected while the rest print
		// (sketched generates the week again for its sketch).
		reads[i] = nil
	}
}

// printers print each experiment's result, by experiment name. Each
// takes the type that its experiment's reader returns.
var printers = map[string]any{
	"fig1": func(days []core.DayShare) {
		t := report.NewTable("day", "date", "weekend", "phase", "userV6", "reqV6")
		for _, d := range days {
			if int(d.Day)%7 != 0 && !d.Day.IsWeekend() && d.Day != simtime.StudyDays-1 {
				continue // print a readable subset: weekly anchors + weekends
			}
			t.Row(int(d.Day), d.Day.Date().Format("Jan 02"), d.Day.IsWeekend(),
				simtime.PhaseOf(d.Day).String(), report.Percent(d.UserShare), report.Percent(d.ReqShare))
		}
		t.Write(os.Stdout)

		userSeries := report.Series{Name: "users on IPv6"}
		reqSeries := report.Series{Name: "requests on IPv6"}
		for _, d := range days {
			userSeries.Points = append(userSeries.Points, stats.Point{X: float64(d.Day), Y: d.UserShare})
			reqSeries.Points = append(reqSeries.Points, stats.Point{X: float64(d.Day), Y: d.ReqShare})
		}
		fmt.Println()
		report.Plot(os.Stdout, 72, 14, userSeries, reqSeries)
	},
	"table1": func(r userv6.Table1Result) {
		t := report.NewTable("#", "ASN", "name", "country", "users", "v6 ratio", "95% CI")
		for i, row := range r.Rows {
			lo, hi := stats.WilsonInterval(uint64(float64(row.Users)*row.Ratio+0.5), uint64(row.Users))
			t.Row(i+1, row.ASN, row.Name, row.Country, row.Users, row.Ratio,
				fmt.Sprintf("[%.2f, %.2f]", lo, hi))
		}
		t.Write(os.Stdout)
		fmt.Printf("\nASNs with >%d users: %d; zero IPv6: %s; under 10%%: %s\n",
			r.MinUsersThreshold, r.QualifyingASNs, report.Percent(r.ZeroShare), report.Percent(r.UnderTenShare))
	},
	"table2": func(r userv6.Table2Result) {
		t := report.NewTable("#", "country (Jan)", "ratio", "country (Apr)", "ratio")
		for i := 0; i < len(r.January) || i < len(r.April); i++ {
			var jc, ac string
			var jr, ar any = "", ""
			if i < len(r.January) {
				jc, jr = r.January[i].Country, r.January[i].Ratio
			}
			if i < len(r.April) {
				ac, ar = r.April[i].Country, r.April[i].Ratio
			}
			t.Row(i+1, jc, jr, ac, ar)
		}
		t.Write(os.Stdout)
		fmt.Printf("\nGermany (lockdown shift): %s -> %s\nGreece (enterprise-v6 loss): %s -> %s\n",
			report.Percent(r.GermanyJan), report.Percent(r.GermanyApr),
			report.Percent(r.GreeceJan), report.Percent(r.GreeceApr))
	},
	"clientaddr": func(p core.ClientAddrPatterns) {
		report.NewTable("metric", "value").
			Row("IPv6 users", p.V6Users).
			Row("Teredo share", report.Percent(p.TeredoShare)).
			Row("6to4 share", report.Percent(p.SixToFourShare)).
			Row("EUI-64 (MAC) share", report.Percent(p.EUI64Share)).
			Row("EUI-64 IID reuse", report.Percent(p.EUI64IIDReuse)).
			Row("structured-IID share", report.Percent(p.StructuredShare)).
			Row("random-IID share", report.Percent(p.RandomIIDShare)).
			Write(os.Stdout)
	},
	"fig2": func(r userv6.AddrsPerUserResult) { addrsTable(r, "users") },
	"fig3": func(r userv6.AddrsPerUserResult) { addrsTable(r, "accounts") },
	"fig4": func(r userv6.Fig4Result) {
		t := report.NewTable("prefix", "users =1", "users <=2", "users <=3", "AA =1", "AA <=2", "AA <=3")
		for i := range r.Users {
			u, a := r.Users[i], r.Abusive[i]
			t.Row(fmt.Sprintf("/%d", u.Length), u.One, u.AtMost2, u.AtMost3, a.One, a.AtMost2, a.AtMost3)
		}
		t.Write(os.Stdout)
	},
	"fig5": func(r userv6.LifespanResult) {
		t := report.NewTable("curve", "pairs", "age=0", "age>7d", "age>=27d")
		t.Row("across v4 pairs", int(r.AgeV4.N()), r.AgeV4.CDFAt(0), r.AgeV4.FracAbove(7), r.AgeV4.FracAbove(26))
		t.Row("across v6 pairs", int(r.AgeV6.N()), r.AgeV6.CDFAt(0), r.AgeV6.FracAbove(7), r.AgeV6.FracAbove(26))
		t.Row("v4 user median", int(r.MedianV4.N()), r.MedianV4.CDFAt(0), r.MedianV4.FracAbove(7), r.MedianV4.FracAbove(26))
		t.Row("v6 user median", int(r.MedianV6.N()), r.MedianV6.CDFAt(0), r.MedianV6.FracAbove(7), r.MedianV6.FracAbove(26))
		t.Write(os.Stdout)
		fmt.Println()
		report.Plot(os.Stdout, 64, 12,
			report.CDFSeries("v6 pairs", r.AgeV6, 27),
			report.CDFSeries("v4 pairs", r.AgeV4, 27),
		)
	},
	"fig6": func(pops []userv6.Labeled[userv6.LifespanResult]) {
		for _, pop := range pops {
			fmt.Printf("-- %s --\n", pop.Label)
			t := report.NewTable("family", "prefix", "pairs", "<=1d", "<=2d", "<=3d")
			for _, fs := range pop.Result.FreshV4 {
				t.Row("IPv4", fmt.Sprintf("/%d", fs.Length), fs.Pairs, fs.Within1, fs.Within2, fs.Within3)
			}
			for _, fs := range pop.Result.FreshV6 {
				t.Row("IPv6", fmt.Sprintf("/%d", fs.Length), fs.Pairs, fs.Within1, fs.Within2, fs.Within3)
			}
			t.Write(os.Stdout)
		}
	},
	"fig7": func(r userv6.IPCentricResult) {
		t := report.NewTable("window", "family", "addresses", "P(=1 user)", "P(<=2)", "max users")
		day4, day6 := r.DayV4.UsersPerPrefix(), r.DayV6.UsersPerPrefix()
		week4, week6 := r.V4.UsersPerPrefix(), r.V6[128].UsersPerPrefix()
		t.Row("1 day", "IPv4", r.DayV4.Prefixes(), day4.CDFAt(1), day4.CDFAt(2), day4.Max())
		t.Row("1 day", "IPv6", r.DayV6.Prefixes(), day6.CDFAt(1), day6.CDFAt(2), day6.Max())
		t.Row("7 days", "IPv4", r.V4.Prefixes(), week4.CDFAt(1), week4.CDFAt(2), week4.Max())
		t.Row("7 days", "IPv6", r.V6[128].Prefixes(), week6.CDFAt(1), week6.CDFAt(2), week6.Max())
		t.Write(os.Stdout)
	},
	"fig8": func(r userv6.IPCentricResult) {
		t := report.NewTable("family", "AA addrs", "P(1 AA)", "P(0 benign)", "P(<=1 benign)", "P(>10 benign)")
		aa4, aa6 := r.V4.AbusivePerAbusivePrefix(), r.V6[128].AbusivePerAbusivePrefix()
		b4, b6 := r.V4.BenignPerAbusivePrefix(), r.V6[128].BenignPerAbusivePrefix()
		t.Row("IPv4", int(aa4.N()), aa4.CDFAt(1), b4.CDFAt(0), b4.CDFAt(1), b4.FracAbove(10))
		t.Row("IPv6", int(aa6.N()), aa6.CDFAt(1), b6.CDFAt(0), b6.CDFAt(1), b6.FracAbove(10))
		t.Write(os.Stdout)
	},
	"fig9": func(r userv6.IPCentricResult) {
		t := report.NewTable("prefix", "prefixes", "P(=1 user)", "P(<=2)", "median", "max")
		lengths := append([]int(nil), userv6.Fig9Lengths...)
		sort.Sort(sort.Reverse(sort.IntSlice(lengths)))
		for _, l := range lengths {
			h := r.V6[l].UsersPerPrefix()
			t.Row(fmt.Sprintf("/%d", l), r.V6[l].Prefixes(), h.CDFAt(1), h.CDFAt(2), h.Median(), h.Max())
		}
		h4 := r.V4.UsersPerPrefix()
		t.Row("IPv4", r.V4.Prefixes(), h4.CDFAt(1), h4.CDFAt(2), h4.Median(), h4.Max())
		t.Write(os.Stdout)
	},
	"fig10": func(r userv6.IPCentricResult) {
		t := report.NewTable("prefix", "AA prefixes", "P(1 AA)", "P(<=1 benign)", "P(>10 benign)")
		for _, l := range []int{128, 64, 56, 48} {
			aa := r.V6[l].AbusivePerAbusivePrefix()
			b := r.V6[l].BenignPerAbusivePrefix()
			t.Row(fmt.Sprintf("/%d", l), int(aa.N()), aa.CDFAt(1), b.CDFAt(1), b.FracAbove(10))
		}
		aa4, b4 := r.V4.AbusivePerAbusivePrefix(), r.V4.BenignPerAbusivePrefix()
		t.Row("IPv4", int(aa4.N()), aa4.CDFAt(1), b4.CDFAt(1), b4.FracAbove(10))
		t.Write(os.Stdout)
	},
	"fig11": func(r userv6.Fig11Result) {
		t := report.NewTable("granularity", "threshold", "TPR", "FPR")
		for _, g := range userv6.Fig11Granularities() {
			roc := r.Curves[g.Name]
			for _, th := range []float64{0, 0.1, 1.0} {
				if p, ok := roc.At(th); ok {
					t.Row(g.Name, th, p.TPR, p.FPR)
				}
			}
		}
		t.Write(os.Stdout)
		fmt.Println()
		series := make([]report.Series, 0, 4)
		for _, g := range userv6.Fig11Granularities() {
			series = append(series, report.ROCSeries(g.Name, r.Curves[g.Name]))
		}
		report.Plot(os.Stdout, 64, 14, series...)
		fmt.Println("\n(x axis: log10 FPR; y axis: TPR)")
		for _, g := range userv6.Fig11Granularities() {
			// A curve with no operating points, or none with negatives to
			// rate, has no area: print "-" rather than NaN.
			auc := "-"
			if a := r.Curves[g.Name].AUC(); !math.IsNaN(a) {
				auc = fmt.Sprintf("%.3f", a)
			}
			fmt.Printf("AUC %-5s %s\n", g.Name, auc)
		}
	},
	"outliers": func(r userv6.OutlierResult) {
		report.NewTable("metric", "IPv4", "IPv6").
			Row(fmt.Sprintf("users with >%d addrs", r.HeavyUserThreshold), r.V4HeavyUsers, r.V6HeavyUsers).
			Row("max addrs per user", r.V4MaxAddrs, r.V6MaxAddrs).
			Row(fmt.Sprintf("addrs with >%d users", r.HeavyAddrThreshold), r.V4HeavyAddrs, r.V6HeavyAddrs).
			Row("max users per addr", r.V4MaxUsers, r.V6MaxUsers).
			Row("max users per /64", "-", r.V6Max64Users).
			Write(os.Stdout)
		c := r.V6Concentration
		fmt.Printf("\nheavy IPv6 addresses: %d, top ASN %d (%s, %s of heavy), %s structured IIDs, %d ASNs total\n",
			c.Heavy, c.TopASN, r.V6TopASNName, report.Percent(c.TopASNShare),
			report.Percent(c.StructuredShare), c.ASNs)
	},
	"advise": func(advice []core.Advice) {
		for _, a := range advice {
			fmt.Printf("-- FPR tolerance %s --\n", report.Percent(a.BlocklistFPR))
			report.NewTable("recommendation", "value").
				Row("blocklist granularity", fmt.Sprintf("/%d", a.BlocklistGranularity)).
				Row("blocklist TPR at tolerance", report.Percent(a.BlocklistTPR)).
				Row("blocklist TTL (days)", a.BlocklistTTLDays).
				Row("rate-limit users per v6 addr", a.RateLimitUsersPerV6Addr).
				Row("rate-limit v4-equivalent length", fmt.Sprintf("/%d", a.RateLimitV4EquivalentLength)).
				Row("blocklist v4-equivalent length", fmt.Sprintf("/%d", a.BlocklistV4EquivalentLength)).
				Row("v6 beats v4 at low FPR", a.V6BeatsV4BelowFPR).
				Row("threat-intel 1-day decay", report.Percent(a.ThreatIntelDecay)).
				Write(os.Stdout)
			fmt.Println()
		}
	},
	"scrapers": func(results []userv6.ScraperDefenseResult) {
		t := report.NewTable("granularity", "budget/day", "scraper volume blocked", "benign volume lost")
		for _, r := range results {
			t.Row(r.Name, r.CapPerDay, report.Percent(r.ScraperBlockShare), report.Percent(r.BenignLossShare))
		}
		t.Write(os.Stdout)
		fmt.Println("\nIID-hopping defeats per-address caps; /64 budgets recover the lost volume.")
	},
	"hijacks": func(r userv6.HijackDetectionResult) {
		report.NewTable("metric", "value").
			Row("compromised accounts", r.Victims).
			Row("detected by IP novelty", r.Detected).
			Row("recall", report.Percent(r.Recall)).
			Row("false alarms", r.FalseAlarms).
			Row("false-alarm share of users", report.Percent(r.FalseAlarmShare)).
			Write(os.Stdout)
		fmt.Println("\ndetector: established account suddenly on hosting/proxy space.")
	},
	"pandemic": func(c userv6.PandemicComparison) {
		t := report.NewTable("metric", "pre-lockdown (Feb)", "lockdown (Apr)")
		t.Row("median v4 addrs/user", c.Pre.MedianV4Addrs, c.Lockdown.MedianV4Addrs)
		t.Row("median v6 addrs/user", c.Pre.MedianV6Addrs, c.Lockdown.MedianV6Addrs)
		t.Row("single-/64 users", report.Percent(c.Pre.SingleSlash64Share), report.Percent(c.Lockdown.SingleSlash64Share))
		t.Row("day-fresh v4 pairs", report.Percent(c.Pre.FreshV4), report.Percent(c.Lockdown.FreshV4))
		t.Row("day-fresh v6 pairs", report.Percent(c.Pre.FreshV6), report.Percent(c.Lockdown.FreshV6))
		t.Write(os.Stdout)
		fmt.Println("\nshifts are small: the study's conclusions hold in both regimes (Appendix A).")
	},
	"segments": func(reports []core.SegmentReport) {
		t := report.NewTable("network kind", "users", "v6 users", "v6 requests", "med v4 addrs", "med v6 addrs")
		for _, r := range reports {
			t.Row(r.Kind.String(), r.Users, report.Percent(r.V6UserShare), report.Percent(r.V6ReqShare),
				r.MedianV4Addrs, r.MedianV6Addrs)
		}
		t.Write(os.Stdout)
	},
	"blocklist-sweep": func(results []userv6.BlocklistSweepResult) {
		t := report.NewTable("policy", "TPR", "FPR", "final list size")
		for _, r := range results {
			t.Row(r.Policy.Name, report.Percent(r.TPR), report.Percent(r.FPR), r.FinalListSize)
		}
		t.Write(os.Stdout)
	},
	"ratelimit-sweep": func(results []userv6.Labeled[[]core.RateLimitOutcome]) {
		for _, r := range results {
			fmt.Printf("-- %s --\n", r.Label)
			t := report.NewTable("cap", "benign throttled", "abusive throttled")
			for _, o := range r.Result {
				t.Row(o.Cap, report.Percent(o.BenignShare), report.Percent(o.AbusiveShare))
			}
			t.Write(os.Stdout)
			fmt.Println()
		}
	},
	"sketched": func(r userv6.SketchedOutliersResult) {
		fmt.Printf("prefix cardinality: sketched %.0f vs exact %d\n", r.PrefixEstimate, r.ExactPrefixes)
		fmt.Printf("heavy-hitter recall vs exact top-10: %s; top estimate error: %s\n\n",
			report.Percent(r.HeavyRecall), report.Percent(r.TopError))
		t := report.NewTable("#", "prefix", "est users", "sightings")
		for i, h := range r.Top {
			t.Row(i+1, h.Prefix.String(), fmt.Sprintf("%.0f", h.Users), h.Count)
		}
		t.Write(os.Stdout)
	},
	"ttlcurve": func(curves []userv6.Labeled[[]float64]) {
		header := []string{"age (days)"}
		for _, c := range curves {
			header = append(header, c.Label)
		}
		t := report.NewTable(header...)
		for k := range curves[0].Result {
			row := []any{k + 1}
			for _, c := range curves {
				row = append(row, report.Percent(c.Result[k]))
			}
			t.Row(row...)
		}
		t.Write(os.Stdout)
		fmt.Println("\nindicator value decays fastest at /128; /64 buys roughly one extra day.")
	},
	"churn": func(b core.ChurnBreakdown) {
		report.NewTable("cause", "new pairs", "share").
			Row("IID rotation (same /64)", b.IIDRotation, report.Percent(b.Share(0))).
			Row("subnet move (same /44)", b.SubnetMove, report.Percent(b.Share(1))).
			Row("network switch", b.NetworkSwitch, report.Percent(b.Share(2))).
			Write(os.Stdout)
		fmt.Printf("\n%d new (user, IPv6 address) pairs attributed\n", b.Total)
	},
	"fig12": func(rows []core.RatioRow) {
		t := report.NewTable("country", "v6 user ratio", "users")
		for _, row := range rows {
			t.Row(row.Country, report.Percent(row.Ratio), row.Users)
		}
		t.Write(os.Stdout)
	},
}

func addrsTable(r userv6.AddrsPerUserResult, entity string) {
	t := report.NewTable("window", "family", "N("+entity+")", "median", "P(=1)", "P(>5)", "max")
	add := func(window, fam string, h *stats.IntHist) {
		t.Row(window, fam, int(h.N()), h.Median(), h.CDFAt(1), h.FracAbove(5), h.Max())
	}
	add("1 day", "IPv4", r.DayV4)
	add("1 day", "IPv6", r.DayV6)
	add("7 days", "IPv4", r.WeekV4)
	add("7 days", "IPv6", r.WeekV6)
	t.Write(os.Stdout)
	fmt.Println()
	report.Plot(os.Stdout, 64, 12,
		report.CDFSeries("IPv4 1d", r.DayV4, 30),
		report.CDFSeries("IPv6 1d", r.DayV6, 30),
		report.CDFSeries("IPv4 7d", r.WeekV4, 30),
		report.CDFSeries("IPv6 7d", r.WeekV6, 30),
	)
}
