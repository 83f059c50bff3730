package userv6

// The reproduction's experiments, in the order `userv6 all` prints
// them, and every parameter they run at. cmd/userv6, the paper tests
// and BenchmarkPaperAll read this one list.

import (
	"userv6/internal/core"
	"userv6/internal/netaddr"
)

// Experiment is one result of the reproduction.
type Experiment struct {
	Name, Desc string
	// Register registers what the experiment reads on a Paper and
	// returns the reader of its result, to call after the Paper's Run.
	Register func(*Paper) func() any
}

// Experiments are the paper's evaluation (Figures 1–12, Tables 1–2,
// §4.4, the RQ3 outliers and the §7.2 advisor) and the reproduction's
// §8 and Appendix A extensions.
var Experiments = []Experiment{
	{"fig1", "daily IPv6 share of users and requests", result((*Paper).Fig1)},
	{"table1", "top ASNs by IPv6 user ratio", result((*Paper).Table1)},
	{"table2", "top countries by IPv6 user ratio, Jan vs Apr", result((*Paper).Table2)},
	{"clientaddr", "§4.4 transition protocols and IID structure", result((*Paper).ClientAddrPatterns)},
	{"fig2", "addresses per user (1 day / 7 days)", result((*Paper).Fig2)},
	{"fig3", "addresses per abusive account (1 day)", result((*Paper).Fig3)},
	{"fig4", "prefixes spanned per entity vs prefix length", result((*Paper).Fig4)},
	{"fig5", "address lifespans for users", result(func(p *Paper) func() LifespanResult { return p.Fig5And6(false) })},
	{"fig6", "prefix lifespans vs prefix length", result(func(p *Paper) func() []Labeled[LifespanResult] {
		return readAll(labeled("users", p.Fig5And6(false)), labeled("abusive accounts", p.Fig5And6(true)))
	})},
	{"fig7", "users per address (day / week)", result((*Paper).IPCentricWeek)},
	{"fig8", "populations on addresses with abusive accounts", result((*Paper).IPCentricWeek)},
	{"fig9", "users per IPv6 prefix by length", result((*Paper).IPCentricWeek)},
	{"fig10", "abusive/benign populations per prefix", result((*Paper).IPCentricWeek)},
	{"fig11", "actioning ROC curves (day n -> n+1)", result((*Paper).Fig11)},
	{"outliers", "RQ3 outlier summary", result((*Paper).Outliers)},
	{"advise", "§7.2 policy advisor", result(advise)},
	{"scrapers", "logged-out scraper defense (§8 future work)", result(func(p *Paper) func() []ScraperDefenseResult {
		return p.ScraperDefense(scraperCaps)
	})},
	{"hijacks", "account-hijack detection (§8 future work)", result((*Paper).DetectHijacks)},
	{"pandemic", "Appendix A pre/post-lockdown robustness", result((*Paper).ComparePandemic)},
	{"segments", "per-network-type behavior (§8 future work)", result((*Paper).Segments)},
	{"blocklist-sweep", "multi-day blocklist policies with TTLs", result(func(p *Paper) func() []BlocklistSweepResult {
		return p.BlocklistSweep(DefaultBlocklistPolicies())
	})},
	{"ratelimit-sweep", "per-prefix entity caps vs collateral", result(rateLimitSweep)},
	{"sketched", "fixed-memory heavy-hitter pipeline vs exact", result(func(p *Paper) func() SketchedOutliersResult {
		return p.SketchedOutliers(sketchLength)
	})},
	{"ttlcurve", "indicator recall decay by age", result(ttlCurves)},
	{"churn", "causes of new IPv6 addresses (§8 future work)", result((*Paper).ChurnReasons)},
	{"fig12", "per-country IPv6 ratios (choropleth as table)", result((*Paper).CountryRatios)},
}

// The parameters the experiments run at.
var (
	// scraperCaps are the scraper defense's request budgets per
	// address-day.
	scraperCaps = []uint64{100, 200, 500, 1000}
	// rateLimitCaps are the entity caps per prefix-day that the
	// rate-limit sweep tries.
	rateLimitCaps = []int{1, 2, 3, 5, 10, 50}
	// sweepGranularities are the rate-limit sweep's and the TTL
	// curve's granularities.
	sweepGranularities = []sweepGranularity{
		{netaddr.IPv6, 128, "IPv6 /128", "IPv6 /128"},
		{netaddr.IPv6, 64, "IPv6 /64", "IPv6 /64"},
		{netaddr.IPv4, 32, "IPv4 addr", "IPv4"},
	}
	// adviseTolerances are the FPR tolerances the advisor advises at.
	adviseTolerances = []float64{0.0001, 0.001, 0.01}
	// ttlHorizon is the TTL curve's oldest indicator age, in days.
	ttlHorizon = 5
	// sketchLength is the prefix length the sketched heavy hitters
	// count.
	sketchLength = 128
)

// sweepGranularity is a granularity the rate-limit sweep and the TTL
// curve read, labeled as the sweep titles its section and as the curve
// heads its column.
type sweepGranularity struct {
	family          netaddr.Family
	length          int
	section, column string
}

// Labeled is one part of an experiment's result, a population or a
// granularity, under the label its printer shows.
type Labeled[R any] struct {
	Label  string
	Result R
}

// labeled returns a reader of read's result under label.
func labeled[R any](label string, read func() R) func() Labeled[R] {
	return func() Labeled[R] { return Labeled[R]{label, read()} }
}

// result adapts a typed registration to Experiment's.
func result[R any](register func(*Paper) func() R) func(*Paper) func() any {
	return func(p *Paper) func() any {
		read := register(p)
		return func() any { return read() }
	}
}

// readAll returns a reader of every one of reads' results, in order.
func readAll[R any](reads ...func() R) func() []R {
	return func() []R {
		out := make([]R, len(reads))
		for i, read := range reads {
			out[i] = read()
		}
		return out
	}
}

// advise registers the §7.2 advisor, read at adviseTolerances.
func advise(p *Paper) func() []core.Advice {
	adviseAt := p.Advise()
	var reads []func() core.Advice
	for _, tol := range adviseTolerances {
		reads = append(reads, func() core.Advice { return adviseAt(tol) })
	}
	return readAll(reads...)
}

// rateLimitSweep registers the rate-limit sweep at rateLimitCaps, one
// result per sweep granularity.
func rateLimitSweep(p *Paper) func() []Labeled[[]core.RateLimitOutcome] {
	var reads []func() Labeled[[]core.RateLimitOutcome]
	for _, g := range sweepGranularities {
		reads = append(reads, labeled(g.section, p.RateLimitSweep(g.family, g.length, rateLimitCaps)))
	}
	return readAll(reads...)
}

// ttlCurves registers the TTL recall curve up to ttlHorizon, one curve
// per sweep granularity.
func ttlCurves(p *Paper) func() []Labeled[[]float64] {
	var reads []func() Labeled[[]float64]
	for _, g := range sweepGranularities {
		reads = append(reads, labeled(g.column, p.TTLRecallCurve(g.family, g.length, ttlHorizon)))
	}
	return readAll(reads...)
}
