package userv6

// Extensions beyond the paper's published experiments, in the directions
// its §8 future work sketches: multi-day blocklists with TTLs, rate-limit
// threshold sweeps, and per-network-type behavioral segmentation.

import (
	"fmt"

	"userv6/internal/core"
	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
)

// BlocklistPolicy identifies one blocklist configuration to evaluate.
type BlocklistPolicy struct {
	Name      string
	Family    netaddr.Family
	Length    int
	Threshold float64
	TTLDays   int
}

// BlocklistSweepResult is one policy's outcome over the analysis week.
type BlocklistSweepResult struct {
	Policy   BlocklistPolicy
	TPR, FPR float64
	// FinalListSize is the number of listed prefixes after the run.
	FinalListSize int
}

// DefaultBlocklistPolicies spans the granularities and TTLs the §7.2
// discussion weighs.
func DefaultBlocklistPolicies() []BlocklistPolicy {
	return []BlocklistPolicy{
		{"/128 t=10% ttl=1", netaddr.IPv6, 128, 0.1, 1},
		{"/128 t=10% ttl=3", netaddr.IPv6, 128, 0.1, 3},
		{"/64 t=10% ttl=1", netaddr.IPv6, 64, 0.1, 1},
		{"/64 t=10% ttl=3", netaddr.IPv6, 64, 0.1, 3},
		{"/64 t=50% ttl=3", netaddr.IPv6, 64, 0.5, 3},
		{"IPv4 t=10% ttl=1", netaddr.IPv4, 32, 0.1, 1},
		{"IPv4 t=10% ttl=3", netaddr.IPv4, 32, 0.1, 3},
	}
}

// BlocklistSweep registers every policy's blocklist over the analysis
// week (day 1 warms the list; days 2-7 are measured). The policies of
// one granularity share one week-long Actioning, which replays each
// policy's list when read.
func (p *Paper) BlocklistSweep(policies []BlocklistPolicy) func() []BlocklistSweepResult {
	acts := make([]*core.Actioning, len(policies))
	for i, pol := range policies {
		acts[i] = p.weekActioning(pol.Family, pol.Length)
	}
	return func() []BlocklistSweepResult {
		out := make([]BlocklistSweepResult, len(policies))
		for i, pol := range policies {
			c, size := acts[i].Blocklist(pol.Threshold, pol.TTLDays)
			out[i] = BlocklistSweepResult{Policy: pol, TPR: c.TPR(), FPR: c.FPR(), FinalListSize: size}
		}
		return out
	}
}

// RateLimitSweep registers per-prefix-day entity caps at one
// granularity across several cap values, over the analysis week.
func (p *Paper) RateLimitSweep(fam netaddr.Family, length int, caps []int) func() []core.RateLimitOutcome {
	ac := p.weekActioning(fam, length)
	return func() []core.RateLimitOutcome { return ac.RateLimit(caps) }
}

// Segments registers the per-network-kind behavioral breakdown over
// the analysis week for benign users (§8 future work).
func (p *Paper) Segments() func() []core.SegmentReport {
	kinds := make(map[netmodel.ASN]netmodel.Kind, len(p.Sim.World.Networks()))
	for _, n := range p.Sim.World.Networks() {
		kinds[n.ASN] = n.Kind
	}
	from, to := AnalysisWeek()
	return register(p, reg{"Segmentation", from, to, benignPop},
		func() *core.Segmentation { return core.NewSegmentation(core.ClassifyByASN(kinds)) }, nil).Report
}

// SketchedOutliersResult is the fixed-memory heavy-hitter pipeline's
// top prefixes and its agreement with exact counting.
type SketchedOutliersResult struct {
	Top            []core.SketchedHeavy
	TopError       float64
	HeavyRecall    float64
	PrefixEstimate float64
	ExactPrefixes  int
}

// SketchedOutliers registers the production-scale counting path over
// the analysis week. Its exact half is the week's IPCentric at length,
// which IPCentricWeek registers too. The sketch's Space-Saving counters
// depend on feed order, so the returned reader feeds the sketch from a
// generation of the week of its own, in Sim.Generate's order.
func (p *Paper) SketchedOutliers(length int) func() SketchedOutliersResult {
	from, to := AnalysisWeek()
	exact, s := p.ipCentric(netaddr.IPv6, length, from, to), p.Sim
	return func() SketchedOutliersResult {
		sk := core.NewSketchedIPCentric(netaddr.IPv6, length, 2048)
		s.Generate(from, to, sk.Observe)
		topErr, recall := core.CompareExact(sk, exact, 10)
		return SketchedOutliersResult{
			Top:            sk.Top(10),
			TopError:       topErr,
			HeavyRecall:    recall,
			PrefixEstimate: sk.Prefixes(),
			ExactPrefixes:  exact.Prefixes(),
		}
	}
}

// TTLRecallCurve registers how recall decays with indicator age: the
// fraction of day (n+k) abusive accounts covered by day-n indicators,
// for k = 1..horizon, with day n the analysis week's first day (the
// threat-exchange decay experiment). The horizon must stay inside the
// week.
func (p *Paper) TTLRecallCurve(fam netaddr.Family, length int, horizon int) func() []float64 {
	ac := p.weekActioning(fam, length)
	return func() []float64 { return ac.RecallDecay(horizon) }
}

// weekActioning is the analysis-week Actioning over both populations
// at one granularity, which the blocklist, rate-limit and TTL sweeps
// read.
func (p *Paper) weekActioning(fam netaddr.Family, length int) *core.Actioning {
	from, to := AnalysisWeek()
	return p.actioning(fam, length, from, to)
}

// ChurnReasons registers the attribution of the analysis week's new
// (user, IPv6 address) pairs to causes — IID rotation, subnet moves,
// network switches — after a one-week warmup (the §8 "causes of
// dynamic IPv6 behavior" study).
func (p *Paper) ChurnReasons() func() core.ChurnBreakdown {
	from, to := AnalysisWeek()
	return register(p, reg{fmt.Sprint("ChurnAttribution from day ", from), max(from-7, 0), to, benignPop},
		func() *core.ChurnAttribution { return core.NewChurnAttribution(from) }, nil).Breakdown
}
