// Command userv6 regenerates every table and figure of "Towards A
// User-Level Understanding of IPv6 Behavior" (IMC 2020) on the synthetic
// substrate, printing the same rows and series the paper reports.
//
// Usage:
//
//	userv6 [-users N] [-seed S] <experiment>
//
// Experiments: fig1 table1 table2 clientaddr fig2 fig3 fig4 fig5 fig6
// fig7 fig8 fig9 fig10 fig11 outliers advise scrapers hijacks pandemic
// segments blocklist-sweep ratelimit-sweep sketched ttlcurve churn
// fig12 all
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
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
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: userv6 [-users N] [-seed S] <experiment>\n\nexperiments:\n")
		for _, e := range experimentOrder {
			fmt.Fprintf(os.Stderr, "  %-11s %s\n", e, experiments[e].desc)
		}
		fmt.Fprintln(os.Stderr, "  all         run every experiment")
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
	names := []string{name}
	if name == "all" {
		names = experimentOrder
	} else if _, ok := experiments[name]; !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
		flag.Usage()
		os.Exit(2)
	}

	sim := userv6.NewSim(userv6.DefaultScenario(*users).WithSeed(*seed))
	fmt.Printf("# userv6: %d users, seed %d (reference scale %.2f)\n\n", *users, *seed, sim.Scenario.Scale())

	// Register every requested experiment, feed them all from the
	// paper's one generation pass, then print. The printers hold what
	// their experiment reads, not the paper.
	paper := userv6.NewPaper(sim)
	prints := make([]func(), len(names))
	for i, e := range names {
		prints[i] = experiments[e].add(paper)
	}
	paper.Run()
	if name != "all" {
		prints[0]()
		return
	}
	for i, e := range names {
		fmt.Printf("== %s: %s ==\n", e, experiments[e].desc)
		prints[i]()
		fmt.Println()
		// Drop the printed experiment, so that analyzers no later
		// experiment reads can be collected while the rest print
		// (sketched generates the week again for its sketch).
		prints[i] = nil
	}
}

type experiment struct {
	desc string
	// add registers what the experiment reads with the paper and
	// returns the function that prints its result after the paper's
	// Run.
	add func(*userv6.Paper) func()
}

// show adapts a printer of one paper result: it registers the figure
// and prints what it reads.
func show[R any](register func(*userv6.Paper) func() R, printer func(R)) func(*userv6.Paper) func() {
	return func(p *userv6.Paper) func() {
		read := register(p)
		return func() { printer(read()) }
	}
}

var experimentOrder = []string{
	"fig1", "table1", "table2", "clientaddr", "fig2", "fig3", "fig4",
	"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "outliers",
	"advise", "scrapers", "hijacks", "pandemic", "segments",
	"blocklist-sweep", "ratelimit-sweep", "sketched", "ttlcurve", "churn",
	"fig12",
}

var experiments = map[string]experiment{
	"fig1":       {"daily IPv6 share of users and requests", show((*userv6.Paper).Fig1, printFig1)},
	"table1":     {"top ASNs by IPv6 user ratio", show((*userv6.Paper).Table1, printTable1)},
	"table2":     {"top countries by IPv6 user ratio, Jan vs Apr", show((*userv6.Paper).Table2, printTable2)},
	"clientaddr": {"§4.4 transition protocols and IID structure", show((*userv6.Paper).ClientAddrPatterns, printClientAddr)},
	"fig2":       {"addresses per user (1 day / 7 days)", show((*userv6.Paper).Fig2, printFig2)},
	"fig3":       {"addresses per abusive account (1 day)", show((*userv6.Paper).Fig3, printFig3)},
	"fig4":       {"prefixes spanned per entity vs prefix length", show((*userv6.Paper).Fig4, printFig4)},
	"fig5":       {"address lifespans for users", show(func(p *userv6.Paper) func() userv6.LifespanResult { return p.Fig5And6(false) }, printFig5)},
	"fig6":       {"prefix lifespans vs prefix length", addFig6},
	"fig7":       {"users per address (day / week)", show((*userv6.Paper).IPCentricWeek, printFig7)},
	"fig8":       {"populations on addresses with abusive accounts", show((*userv6.Paper).IPCentricWeek, printFig8)},
	"fig9":       {"users per IPv6 prefix by length", show((*userv6.Paper).IPCentricWeek, printFig9)},
	"fig10":      {"abusive/benign populations per prefix", show((*userv6.Paper).IPCentricWeek, printFig10)},
	"fig11":      {"actioning ROC curves (day n -> n+1)", show((*userv6.Paper).Fig11, printFig11)},
	"outliers":   {"RQ3 outlier summary", addOutliers},
	"advise":     {"§7.2 policy advisor", addAdvise},
	"scrapers": {"logged-out scraper defense (§8 future work)", show(func(p *userv6.Paper) func() []userv6.ScraperDefenseResult {
		return p.ScraperDefense([]uint64{100, 200, 500, 1000})
	}, printScrapers)},
	"hijacks":  {"account-hijack detection (§8 future work)", show((*userv6.Paper).DetectHijacks, printHijacks)},
	"pandemic": {"Appendix A pre/post-lockdown robustness", show((*userv6.Paper).ComparePandemic, printPandemic)},
	"segments": {"per-network-type behavior (§8 future work)", show((*userv6.Paper).Segments, printSegments)},
	"blocklist-sweep": {"multi-day blocklist policies with TTLs", show(func(p *userv6.Paper) func() []userv6.BlocklistSweepResult {
		return p.BlocklistSweep(userv6.DefaultBlocklistPolicies())
	}, printBlocklistSweep)},
	"ratelimit-sweep": {"per-prefix entity caps vs collateral", addRateLimitSweep},
	"sketched": {"fixed-memory heavy-hitter pipeline vs exact", show(func(p *userv6.Paper) func() userv6.SketchedOutliersResult {
		return p.SketchedOutliers(128)
	}, printSketched)},
	"ttlcurve": {"indicator recall decay by age", addTTLCurve},
	"churn":    {"causes of new IPv6 addresses (§8 future work)", show((*userv6.Paper).ChurnReasons, printChurn)},
	"fig12":    {"per-country IPv6 ratios (choropleth as table)", show((*userv6.Paper).CountryRatios, printFig12)},
}

func printFig1(days []core.DayShare) {
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
}

func printTable1(r userv6.Table1Result) {
	t := report.NewTable("#", "ASN", "name", "country", "users", "v6 ratio", "95% CI")
	for i, row := range r.Rows {
		lo, hi := stats.WilsonInterval(uint64(float64(row.Users)*row.Ratio+0.5), uint64(row.Users))
		t.Row(i+1, row.ASN, row.Name, row.Country, row.Users, row.Ratio,
			fmt.Sprintf("[%.2f, %.2f]", lo, hi))
	}
	t.Write(os.Stdout)
	fmt.Printf("\nASNs with >%d users: %d; zero IPv6: %s; under 10%%: %s\n",
		r.MinUsersThreshold, r.QualifyingASNs, report.Percent(r.ZeroShare), report.Percent(r.UnderTenShare))
}

func printTable2(r userv6.Table2Result) {
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
}

func printClientAddr(p core.ClientAddrPatterns) {
	report.NewTable("metric", "value").
		Row("IPv6 users", p.V6Users).
		Row("Teredo share", report.Percent(p.TeredoShare)).
		Row("6to4 share", report.Percent(p.SixToFourShare)).
		Row("EUI-64 (MAC) share", report.Percent(p.EUI64Share)).
		Row("EUI-64 IID reuse", report.Percent(p.EUI64IIDReuse)).
		Row("structured-IID share", report.Percent(p.StructuredShare)).
		Row("random-IID share", report.Percent(p.RandomIIDShare)).
		Write(os.Stdout)
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

func printFig2(r userv6.AddrsPerUserResult) { addrsTable(r, "users") }
func printFig3(r userv6.AddrsPerUserResult) { addrsTable(r, "accounts") }

func printFig4(r userv6.Fig4Result) {
	t := report.NewTable("prefix", "users =1", "users <=2", "users <=3", "AA =1", "AA <=2", "AA <=3")
	for i := range r.Users {
		u, a := r.Users[i], r.Abusive[i]
		t.Row(fmt.Sprintf("/%d", u.Length), u.One, u.AtMost2, u.AtMost3, a.One, a.AtMost2, a.AtMost3)
	}
	t.Write(os.Stdout)
}

func printFig5(r userv6.LifespanResult) {
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
}

func addFig6(p *userv6.Paper) func() {
	users, aas := p.Fig5And6(false), p.Fig5And6(true)
	return func() {
		for _, pop := range []struct {
			name string
			read func() userv6.LifespanResult
		}{{"users", users}, {"abusive accounts", aas}} {
			r := pop.read()
			fmt.Printf("-- %s --\n", pop.name)
			t := report.NewTable("family", "prefix", "pairs", "<=1d", "<=2d", "<=3d")
			for _, fs := range r.FreshV4 {
				t.Row("IPv4", fmt.Sprintf("/%d", fs.Length), fs.Pairs, fs.Within1, fs.Within2, fs.Within3)
			}
			for _, fs := range r.FreshV6 {
				t.Row("IPv6", fmt.Sprintf("/%d", fs.Length), fs.Pairs, fs.Within1, fs.Within2, fs.Within3)
			}
			t.Write(os.Stdout)
		}
	}
}

func printFig7(r userv6.IPCentricResult) {
	t := report.NewTable("window", "family", "addresses", "P(=1 user)", "P(<=2)", "max users")
	day4, day6 := r.DayV4.UsersPerPrefix(), r.DayV6.UsersPerPrefix()
	week4, week6 := r.V4.UsersPerPrefix(), r.V6[128].UsersPerPrefix()
	t.Row("1 day", "IPv4", r.DayV4.Prefixes(), day4.CDFAt(1), day4.CDFAt(2), day4.Max())
	t.Row("1 day", "IPv6", r.DayV6.Prefixes(), day6.CDFAt(1), day6.CDFAt(2), day6.Max())
	t.Row("7 days", "IPv4", r.V4.Prefixes(), week4.CDFAt(1), week4.CDFAt(2), week4.Max())
	t.Row("7 days", "IPv6", r.V6[128].Prefixes(), week6.CDFAt(1), week6.CDFAt(2), week6.Max())
	t.Write(os.Stdout)
}

func printFig8(r userv6.IPCentricResult) {
	t := report.NewTable("family", "AA addrs", "P(1 AA)", "P(0 benign)", "P(<=1 benign)", "P(>10 benign)")
	aa4, aa6 := r.V4.AbusivePerAbusivePrefix(), r.V6[128].AbusivePerAbusivePrefix()
	b4, b6 := r.V4.BenignPerAbusivePrefix(), r.V6[128].BenignPerAbusivePrefix()
	t.Row("IPv4", int(aa4.N()), aa4.CDFAt(1), b4.CDFAt(0), b4.CDFAt(1), b4.FracAbove(10))
	t.Row("IPv6", int(aa6.N()), aa6.CDFAt(1), b6.CDFAt(0), b6.CDFAt(1), b6.FracAbove(10))
	t.Write(os.Stdout)
}

func printFig9(r userv6.IPCentricResult) {
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
}

func printFig10(r userv6.IPCentricResult) {
	t := report.NewTable("prefix", "AA prefixes", "P(1 AA)", "P(<=1 benign)", "P(>10 benign)")
	for _, l := range []int{128, 64, 56, 48} {
		aa := r.V6[l].AbusivePerAbusivePrefix()
		b := r.V6[l].BenignPerAbusivePrefix()
		t.Row(fmt.Sprintf("/%d", l), int(aa.N()), aa.CDFAt(1), b.CDFAt(1), b.FracAbove(10))
	}
	aa4, b4 := r.V4.AbusivePerAbusivePrefix(), r.V4.BenignPerAbusivePrefix()
	t.Row("IPv4", int(aa4.N()), aa4.CDFAt(1), b4.CDFAt(1), b4.FracAbove(10))
	t.Write(os.Stdout)
}

func printFig11(r userv6.Fig11Result) {
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
}

func addOutliers(p *userv6.Paper) func() {
	outliers, asnName := p.Outliers(), p.Sim.World.ASNName
	return func() {
		r := outliers()
		report.NewTable("metric", "IPv4", "IPv6").
			Row(fmt.Sprintf("users with >%d addrs", r.HeavyUserThreshold), r.V4HeavyUsers, r.V6HeavyUsers).
			Row("max addrs per user", r.V4MaxAddrs, r.V6MaxAddrs).
			Row(fmt.Sprintf("addrs with >%d users", r.HeavyAddrThreshold), r.V4HeavyAddrs, r.V6HeavyAddrs).
			Row("max users per addr", r.V4MaxUsers, r.V6MaxUsers).
			Row("max users per /64", "-", r.V6Max64Users).
			Write(os.Stdout)
		c := r.V6Concentration
		fmt.Printf("\nheavy IPv6 addresses: %d, top ASN %d (%s, %s of heavy), %s structured IIDs, %d ASNs total\n",
			c.Heavy, c.TopASN, asnName(c.TopASN), report.Percent(c.TopASNShare),
			report.Percent(c.StructuredShare), c.ASNs)
	}
}

func addAdvise(p *userv6.Paper) func() {
	advise := p.Advise()
	return func() {
		for _, tol := range []float64{0.0001, 0.001, 0.01} {
			a := advise(tol)
			fmt.Printf("-- FPR tolerance %s --\n", report.Percent(tol))
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
	}
}
