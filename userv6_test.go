package userv6

// Integration tests: build a small simulation and assert that the
// paper's qualitative findings — orderings, modal shifts, directional
// differences — hold end to end. These are the "shape pass criteria"
// from DESIGN.md §3; absolute magnitudes are compared in EXPERIMENTS.md.

import (
	"testing"

	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// testSim is shared across the integration tests (read-only analyses).
var testSimCache *Sim

func testSim(t testing.TB) *Sim {
	t.Helper()
	if testSimCache == nil {
		testSimCache = NewSim(DefaultScenario(12_000))
	}
	return testSimCache
}

func TestSimDeterministic(t *testing.T) {
	a := NewSim(DefaultScenario(800))
	b := NewSim(DefaultScenario(800))
	var oa, ob []telemetry.Observation
	a.Generate(10, 11, func(o telemetry.Observation) { oa = append(oa, o) })
	b.Generate(10, 11, func(o telemetry.Observation) { ob = append(ob, o) })
	if len(oa) == 0 || len(oa) != len(ob) {
		t.Fatalf("lengths: %d vs %d", len(oa), len(ob))
	}
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatalf("observation %d differs", i)
		}
	}
	c := NewSim(DefaultScenario(800).WithSeed(2))
	var oc []telemetry.Observation
	c.Generate(10, 11, func(o telemetry.Observation) { oc = append(oc, o) })
	if len(oc) == len(oa) {
		same := true
		for i := range oc {
			if oc[i] != oa[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical telemetry")
		}
	}
}

func TestFig1Shapes(t *testing.T) {
	days := runFigure(testSim(t), (*Paper).Fig1)
	if len(days) != simtime.StudyDays {
		t.Fatalf("days = %d", len(days))
	}
	var userSum, reqSum float64
	for _, d := range days {
		if d.UserShare <= 0 || d.UserShare >= 1 || d.ReqShare <= 0 || d.ReqShare >= 1 {
			t.Fatalf("day %v shares out of range: %+v", d.Day, d)
		}
		// Users counted via "any v6 request" always exceed the raw
		// request share (paper §4.1).
		if d.UserShare <= d.ReqShare {
			t.Fatalf("day %v: user share %.3f <= request share %.3f", d.Day, d.UserShare, d.ReqShare)
		}
		userSum += d.UserShare
		reqSum += d.ReqShare
	}
	meanUser := userSum / float64(len(days))
	meanReq := reqSum / float64(len(days))
	// Paper bands: 34.5-36.5% users, 22.5-25% requests. Allow slack for
	// the small simulation.
	if meanUser < 0.30 || meanUser > 0.45 {
		t.Fatalf("mean user share = %.3f", meanUser)
	}
	if meanReq < 0.17 || meanReq > 0.30 {
		t.Fatalf("mean request share = %.3f", meanReq)
	}
	// Lockdown decreases the user share relative to pre-pandemic:
	// integrate over all weekdays of each phase to beat sampling noise.
	var pre, preN, locked, lockedN float64
	for _, d := range days {
		if d.Day.IsWeekend() {
			continue
		}
		switch simtime.PhaseOf(d.Day) {
		case simtime.PrePandemic:
			pre += d.UserShare
			preN++
		case simtime.Lockdown:
			locked += d.UserShare
			lockedN++
		}
	}
	pre /= preN
	locked /= lockedN
	if locked >= pre {
		t.Fatalf("lockdown user share %.4f did not drop below pre-pandemic %.4f", locked, pre)
	}
}

func TestTable1Shapes(t *testing.T) {
	r := runFigure(testSim(t), (*Paper).Table1)
	if len(r.Rows) != 10 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Ratios descend and stay in the paper's plausible band.
	for i, row := range r.Rows {
		if i > 0 && row.Ratio > r.Rows[i-1].Ratio {
			t.Fatal("rows not sorted")
		}
		if row.Ratio < 0.6 || row.Ratio > 1 {
			t.Fatalf("row %d ratio %.2f outside top-ASN band", i, row.Ratio)
		}
	}
	// Reliance Jio tops the list, as in Table 1.
	if r.Rows[0].ASN != 55836 {
		t.Fatalf("top ASN = %d (%s), want Reliance Jio", r.Rows[0].ASN, r.Rows[0].Name)
	}
	// The named carriers appear in the top 10.
	named := map[uint32]bool{}
	for _, row := range r.Rows {
		named[uint32(row.ASN)] = true
	}
	for _, want := range []uint32{55836, 21928} {
		if !named[want] {
			t.Errorf("ASN %d missing from top 10", want)
		}
	}
	// §4.2 bands: some ASNs zero, more under 10%.
	if r.ZeroShare <= 0 || r.ZeroShare > 0.35 {
		t.Fatalf("zero share = %.3f", r.ZeroShare)
	}
	if r.UnderTenShare <= r.ZeroShare {
		t.Fatalf("under-10%% share %.3f should exceed zero share %.3f", r.UnderTenShare, r.ZeroShare)
	}
}

func TestTable2Shapes(t *testing.T) {
	r := runFigure(testSim(t), (*Paper).Table2)
	if len(r.April) != 10 || len(r.January) != 10 {
		t.Fatalf("rows: jan=%d apr=%d", len(r.January), len(r.April))
	}
	if r.April[0].Country != "IN" {
		t.Fatalf("top April country = %s, want IN", r.April[0].Country)
	}
	// Germany rises under lockdown; Greece declines.
	if r.GermanyApr <= r.GermanyJan {
		t.Fatalf("Germany %.3f -> %.3f: no lockdown rise", r.GermanyJan, r.GermanyApr)
	}
	if r.GreeceApr >= r.GreeceJan {
		t.Fatalf("Greece %.3f -> %.3f: no decline", r.GreeceJan, r.GreeceApr)
	}
}

func TestClientAddrPatternShapes(t *testing.T) {
	p := runFigure(testSim(t), (*Paper).ClientAddrPatterns)
	if p.V6Users == 0 {
		t.Fatal("no v6 users")
	}
	// Transition protocols: well under 1% (paper: < 0.01%).
	if p.TeredoShare+p.SixToFourShare > 0.005 {
		t.Fatalf("transition share = %v", p.TeredoShare+p.SixToFourShare)
	}
	// EUI-64 share around 2.5%.
	if p.EUI64Share < 0.01 || p.EUI64Share > 0.05 {
		t.Fatalf("EUI-64 share = %v", p.EUI64Share)
	}
	// Most multi-address EUI-64 users reuse one IID (paper: 83%).
	if p.EUI64IIDReuse < 0.6 {
		t.Fatalf("EUI-64 IID reuse = %v", p.EUI64IIDReuse)
	}
	// Random IIDs dominate.
	if p.RandomIIDShare < 0.8 {
		t.Fatalf("random IID share = %v", p.RandomIIDShare)
	}
}

func TestFig2Fig3Shapes(t *testing.T) {
	paper := NewPaper(testSim(t))
	fig2, fig3 := paper.Fig2(), paper.Fig3()
	paper.Run()
	users := fig2()
	// Users gain more v6 than v4 addresses over a week (paper: medians
	// 9 vs 6).
	if users.WeekV6.Median() <= users.WeekV4.Median() {
		t.Fatalf("weekly medians: v6 %d <= v4 %d", users.WeekV6.Median(), users.WeekV4.Median())
	}
	// Counts grow with the window.
	if users.WeekV6.Median() <= users.DayV6.Median() {
		t.Fatalf("v6 medians: week %d <= day %d", users.WeekV6.Median(), users.DayV6.Median())
	}

	aas := fig3()
	// The majority of abusive accounts use one address per day on both
	// protocols...
	if aas.DayV6.CDFAt(1) < 0.5 || aas.DayV4.CDFAt(1) < 0.5 {
		t.Fatalf("AA single-address shares: v4=%.2f v6=%.2f", aas.DayV4.CDFAt(1), aas.DayV6.CDFAt(1))
	}
	// ...and have at most as many v6 as v4 addresses — the inverse of
	// benign users (§5.1.2).
	if aas.DayV6.CDFAt(1) < aas.DayV4.CDFAt(1) {
		t.Fatalf("AA v6 single share %.2f below v4 %.2f", aas.DayV6.CDFAt(1), aas.DayV4.CDFAt(1))
	}
	// Benign users show the opposite ordering on the single-day view.
	if users.DayV6.CDFAt(1) > users.DayV4.CDFAt(1) {
		t.Fatalf("benign v6 single share %.2f above v4 %.2f", users.DayV6.CDFAt(1), users.DayV4.CDFAt(1))
	}
}

func TestFig4Shapes(t *testing.T) {
	r := runFigure(testSim(t), (*Paper).Fig4)
	share := func(l int) float64 {
		for _, s := range r.Users {
			if s.Length == l {
				return s.One
			}
		}
		t.Fatalf("length %d missing", l)
		return 0
	}
	// Modal shift at /64: single-prefix share jumps from /72 to /64.
	if share(64) < share(72)+0.2 {
		t.Fatalf("no /64 modal shift: /72=%.2f /64=%.2f", share(72), share(64))
	}
	// Aggregation at prefixes shorter than /48 (routing-prefix level).
	if share(40) < share(48)+0.02 {
		t.Fatalf("no short-prefix aggregation: /48=%.2f /40=%.2f", share(48), share(40))
	}
	// Monotone nondecreasing as prefixes shorten.
	prev := 0.0
	for i := len(r.Users) - 1; i >= 0; i-- {
		if r.Users[i].One+1e-9 < prev {
			t.Fatalf("user one-share not monotone at /%d", r.Users[i].Length)
		}
		prev = r.Users[i].One
		if r.Users[i].One > r.Users[i].AtMost2+1e-9 || r.Users[i].AtMost2 > r.Users[i].AtMost3+1e-9 {
			t.Fatalf("span ordering violated at /%d", r.Users[i].Length)
		}
	}
	// Abusive accounts also aggregate at /64 (Figure 4b).
	var aa72, aa64 float64
	for _, s := range r.Abusive {
		if s.Length == 72 {
			aa72 = s.One
		}
		if s.Length == 64 {
			aa64 = s.One
		}
	}
	if aa64 <= aa72 {
		t.Fatalf("abusive /64 shift missing: /72=%.2f /64=%.2f", aa72, aa64)
	}
}

func TestFig5Fig6Shapes(t *testing.T) {
	r := runFigure(testSim(t), benignLifespans)
	// IPv6 pairs are far fresher than IPv4 pairs (paper: 84% vs 66%).
	fresh6, fresh4 := r.AgeV6.CDFAt(0), r.AgeV4.CDFAt(0)
	if fresh6 < fresh4+0.2 {
		t.Fatalf("freshness gap missing: v6=%.3f v4=%.3f", fresh6, fresh4)
	}
	// Week-old pairs: v4 much more common (22% vs 1.2%).
	if r.AgeV4.FracAbove(7) < 4*r.AgeV6.FracAbove(7) {
		t.Fatalf(">7d: v4=%.3f v6=%.3f", r.AgeV4.FracAbove(7), r.AgeV6.FracAbove(7))
	}
	// The per-user median CDF sits below the pair-level CDF (paper
	// §5.3.1: users maintain activity on some addresses for longer, so
	// grouping per user skews older).
	if r.MedianV6.CDFAt(0) > fresh6+0.02 {
		t.Fatalf("median curve above pair curve: %.3f > %.3f", r.MedianV6.CDFAt(0), fresh6)
	}
	// Figure 6: freshness decreases (lifespans lengthen) at /64 and
	// again at the routing prefix for IPv6.
	within1 := map[int]float64{}
	for _, fs := range r.FreshV6 {
		within1[fs.Length] = fs.Within1
	}
	if within1[64] >= within1[128] {
		t.Fatalf("/64 pairs should outlive /128 pairs: %.3f vs %.3f", within1[64], within1[128])
	}
	if within1[48] > within1[64] {
		t.Fatalf("/48 pairs should outlive /64 pairs: %.3f vs %.3f", within1[48], within1[64])
	}
}

func TestIPCentricShapes(t *testing.T) {
	r := runFigure(testSim(t), (*Paper).IPCentricWeek)

	// Figure 7: v6 addresses nearly single-user; v4 far from it.
	v6single := r.V6[128].UsersPerPrefix().CDFAt(1)
	v4single := r.V4.UsersPerPrefix().CDFAt(1)
	if v6single < 0.9 {
		t.Fatalf("v6 single-user share = %.3f", v6single)
	}
	if v4single > v6single-0.3 {
		t.Fatalf("v4 single-user share %.3f too close to v6 %.3f", v4single, v6single)
	}
	// Over 99% of v6 addresses hold at most two users.
	if r.V6[128].UsersPerPrefix().CDFAt(2) < 0.99 {
		t.Fatalf("v6 <=2 users share = %.4f", r.V6[128].UsersPerPrefix().CDFAt(2))
	}

	// Figure 9: single-user share decreases with shorter prefixes, with
	// the /68 -> /64 drop being pronounced.
	s := func(l int) float64 { return r.V6[l].UsersPerPrefix().CDFAt(1) }
	if !(s(128) >= s(72) && s(72) >= s(68) && s(68) > s(64) && s(64) >= s(48) && s(48) >= s(44)) {
		t.Fatalf("fig9 ordering violated: 128=%.2f 72=%.2f 68=%.2f 64=%.2f 48=%.2f 44=%.2f",
			s(128), s(72), s(68), s(64), s(48), s(44))
	}
	if s(68)-s(64) < 0.1 {
		t.Fatalf("/64 aggregation too weak: /68=%.2f /64=%.2f", s(68), s(64))
	}

	// Figure 8: abusive v4 addresses swim in benign users; abusive v6
	// addresses are mostly isolated.
	b4 := r.V4.BenignPerAbusivePrefix()
	b6 := r.V6[128].BenignPerAbusivePrefix()
	if b4.CDFAt(0) > 0.2 {
		t.Fatalf("v4 AA addrs with zero benign = %.3f, want small", b4.CDFAt(0))
	}
	if b6.CDFAt(0) < 0.5 {
		t.Fatalf("v6 AA addrs with zero benign = %.3f, want majority", b6.CDFAt(0))
	}
	if b4.FracAbove(10) < 0.3 {
		t.Fatalf("v4 AA addrs with >10 benign = %.3f", b4.FracAbove(10))
	}

	// Figure 10: abusive aggregation appears by /56 (hosting ranges).
	aaSingle := func(l int) float64 { return r.V6[l].AbusivePerAbusivePrefix().CDFAt(1) }
	if aaSingle(56) >= aaSingle(128) {
		t.Fatalf("no abusive aggregation at /56: /128=%.2f /56=%.2f", aaSingle(128), aaSingle(56))
	}
}

func TestOutlierShapes(t *testing.T) {
	r := runFigure(testSim(t), (*Paper).Outliers)
	// IPv4 outliers dwarf IPv6 outliers in both directions.
	if r.V4MaxUsers <= r.V6MaxUsers {
		t.Fatalf("max users per addr: v4 %d <= v6 %d", r.V4MaxUsers, r.V6MaxUsers)
	}
	if r.V4HeavyAddrs <= r.V6HeavyAddrs {
		t.Fatalf("heavy addrs: v4 %d <= v6 %d", r.V4HeavyAddrs, r.V6HeavyAddrs)
	}
	// Heavy v6 addresses concentrate in the gateway ASN with structured
	// IIDs (paper: 96% in ASN 20057, structured signature).
	if r.V6Concentration.Heavy > 0 {
		if r.V6Concentration.TopASN != 20057 {
			t.Fatalf("top heavy-v6 ASN = %d", r.V6Concentration.TopASN)
		}
		if r.V6Concentration.TopASNShare < 0.8 || r.V6Concentration.StructuredShare < 0.8 {
			t.Fatalf("concentration = %+v", r.V6Concentration)
		}
	}
	// The /64 maximum exceeds the address maximum (aggregation).
	if r.V6Max64Users < r.V6MaxUsers {
		t.Fatalf("/64 max %d below address max %d", r.V6Max64Users, r.V6MaxUsers)
	}
}

func TestFig11Shapes(t *testing.T) {
	r := runFigure(testSim(t), (*Paper).Fig11)
	c128, c64, cv4 := r.Curves["/128"], r.Curves["/64"], r.Curves["IPv4"]

	p128, _ := c128.At(0)
	p64, _ := c64.At(0)
	pv4, _ := cv4.At(0)
	// IPv4 actioning at threshold 0: high recall, high collateral.
	if pv4.TPR <= p128.TPR {
		t.Fatalf("v4 TPR %.3f <= /128 TPR %.3f at t=0", pv4.TPR, p128.TPR)
	}
	if pv4.FPR <= p64.FPR {
		t.Fatalf("v4 FPR %.4f <= /64 FPR %.4f at t=0", pv4.FPR, p64.FPR)
	}
	// /64 beats /128 on recall at threshold 0 (spatial locality).
	if p64.TPR <= p128.TPR {
		t.Fatalf("/64 TPR %.3f <= /128 TPR %.3f", p64.TPR, p128.TPR)
	}
	// At low FPR, some v6 curve dominates IPv4 (the paper's headline
	// actionability claim).
	probes := []float64{0.001, 0.01}
	if !c64.DominatesBelow(cv4, probes) && !c128.DominatesBelow(cv4, probes) {
		t.Fatal("no v6 dominance at low FPR")
	}
	// Raising the threshold never raises TPR.
	for name, curve := range r.Curves {
		prevTPR := 2.0
		for _, th := range []float64{0, 0.1, 0.5, 1.0} {
			if p, ok := curve.At(th); ok {
				if p.TPR > prevTPR+1e-9 {
					t.Fatalf("%s: TPR increased with threshold", name)
				}
				prevTPR = p.TPR
			}
		}
	}
}

func TestAdviseShapes(t *testing.T) {
	paper := NewPaper(testSim(t))
	advise := paper.Advise()
	paper.Run()
	a := advise(0.001)
	if a.BlocklistGranularity != 64 && a.BlocklistGranularity != 128 {
		t.Fatalf("granularity = %d", a.BlocklistGranularity)
	}
	if a.BlocklistTTLDays < 1 || a.BlocklistTTLDays > 7 {
		t.Fatalf("TTL = %d", a.BlocklistTTLDays)
	}
	// v6 addresses hold very few benign users: tight budgets.
	if a.RateLimitUsersPerV6Addr < 1 || a.RateLimitUsersPerV6Addr > 30 {
		t.Fatalf("rate-limit budget = %d", a.RateLimitUsersPerV6Addr)
	}
	// The v4-equivalents are short prefixes (paper: /48 for users, /56
	// for abuse).
	if a.RateLimitV4EquivalentLength > 64 {
		t.Fatalf("rate-limit equivalent /%d too long", a.RateLimitV4EquivalentLength)
	}
	if a.BlocklistV4EquivalentLength > 64 {
		t.Fatalf("blocklist equivalent /%d too long", a.BlocklistV4EquivalentLength)
	}
	if a.ThreatIntelDecay < 0.4 {
		t.Fatalf("threat-intel decay = %.3f, want fast decay", a.ThreatIntelDecay)
	}
}
