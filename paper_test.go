package userv6

// The reference for Paper: the per-figure feeds it replaced, kept
// verbatim as the methods of perFigureFeeds. Each figure generates its
// own window and feeds its own analyzers, and Advise re-runs three
// figures per tolerance. One change: Figure 11's simulators take days
// n and n+1 at construction and one Observe, fed day n and then day
// n+1 as before. internal/core's TestActioningCommutativeFold checks that
// simulator against the two-phase one it replaced. Seven §8 and
// Appendix A extensions join them, as the Sim methods they replaced:
// Segments, TTLRecallCurve, ChurnReasons, ComparePandemic,
// SketchedOutliers, ScraperDefense and DetectHijacks. ScraperDefense
// feeds a copy of internal/core's reference request limiter. The
// blocklist and rate-limit sweeps' references are internal/core's
// BlocklistSim and RateLimitSim, which
// TestActioningMatchesReferenceSims checks Actioning against.

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"userv6/internal/core"
	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/simtime"
	"userv6/internal/stats"
	"userv6/internal/telemetry"
)

// perFigureFeeds computes each figure with its own generation pass.
type perFigureFeeds struct{ *Sim }

// Fig1 computes the daily IPv6 prevalence series for [from, to]
// (Figure 1). Only benign traffic counts, as in the paper's user and
// request random samples.
func (s perFigureFeeds) Fig1(from, to simtime.Day) []core.DayShare {
	prev := core.NewPrevalence()
	s.Benign.Generate(from, to, prev.Observe)
	return prev.Daily()
}

// Table1 ranks ASNs by IPv6 user ratio over [from, to] (Table 1).
func (s perFigureFeeds) Table1(from, to simtime.Day) Table1Result {
	prev := core.NewPrevalence()
	s.Benign.Generate(from, to, prev.Observe)
	min := s.Scenario.Users / 150
	if min < 20 {
		min = 20
	}
	zero, under, total := prev.ASNShareBands(min)
	rows := prev.TopASNs(min, 10, s.World.ASNName)
	// Attribute each ASN to its operator's country.
	countryOf := make(map[netmodel.ASN]string, len(s.World.Networks()))
	for _, n := range s.World.Networks() {
		countryOf[n.ASN] = n.Country
	}
	for i := range rows {
		rows[i].Country = countryOf[rows[i].ASN]
	}
	return Table1Result{
		Rows:              rows,
		ZeroShare:         zero,
		UnderTenShare:     under,
		QualifyingASNs:    total,
		MinUsersThreshold: min,
	}
}

// Table2 computes country IPv6 user ratios for the Jan 23-29 and
// Apr 13-19 weeks (Table 2 / Figure 12).
func (s perFigureFeeds) Table2() Table2Result {
	min := s.Scenario.Users / 1000
	if min < 10 {
		min = 10
	}
	jan := core.NewPrevalence()
	s.Benign.Generate(simtime.JanWeekStart, simtime.JanWeekEnd, jan.Observe)
	apr := core.NewPrevalence()
	s.Benign.Generate(simtime.AnalysisWeekStart, simtime.AnalysisWeekEnd, apr.Observe)
	var r Table2Result
	r.January = jan.TopCountries(min, 10)
	r.April = apr.TopCountries(min, 10)
	r.GermanyJan, _ = jan.CountryRatio("DE")
	r.GermanyApr, _ = apr.CountryRatio("DE")
	r.GreeceJan, _ = jan.CountryRatio("GR")
	r.GreeceApr, _ = apr.CountryRatio("GR")
	return r
}

// CountryRatios returns every qualifying country's IPv6 user ratio over
// the analysis week, descending — the data behind the Figure 12
// choropleth.
func (s perFigureFeeds) CountryRatios() []core.RatioRow {
	min := s.Scenario.Users / 1000
	if min < 10 {
		min = 10
	}
	prev := core.NewPrevalence()
	s.Benign.Generate(simtime.AnalysisWeekStart, simtime.AnalysisWeekEnd, prev.Observe)
	return prev.TopCountries(min, 0)
}

// ClientAddrPatterns computes the §4.4 transition-protocol and IID
// structure summary over the analysis week.
func (s perFigureFeeds) ClientAddrPatterns() core.ClientAddrPatterns {
	uc := core.NewUserCentric()
	s.Benign.Generate(simtime.AnalysisWeekStart, simtime.AnalysisWeekEnd, uc.Observe)
	return uc.AddrPatterns()
}

// Fig2 computes benign addresses-per-user CDF inputs (Figure 2) over the
// analysis week, with the single-day cut on the week's last day.
func (s perFigureFeeds) Fig2() AddrsPerUserResult {
	return s.addrsPerEntity(false)
}

// Fig3 computes the abusive-account equivalent (Figure 3).
func (s perFigureFeeds) Fig3() AddrsPerUserResult {
	return s.addrsPerEntity(true)
}

func (s perFigureFeeds) addrsPerEntity(abusive bool) AddrsPerUserResult {
	from, to := AnalysisWeek()
	week := core.NewUserCentricFor(abusive)
	day := core.NewUserCentricFor(abusive)
	feed := func(o telemetry.Observation) {
		week.Observe(o)
		if o.Day == to {
			day.Observe(o)
		}
	}
	if abusive {
		s.Abusive.Generate(from, to, feed)
	} else {
		s.Benign.Generate(from, to, feed)
	}
	return AddrsPerUserResult{
		DayV4:    day.AddrsPerUser(netaddr.IPv4),
		DayV6:    day.AddrsPerUser(netaddr.IPv6),
		WeekV4:   week.AddrsPerUser(netaddr.IPv4),
		WeekV6:   week.AddrsPerUser(netaddr.IPv6),
		Entities: week.Users(),
	}
}

// Fig4 computes the share of entities whose IPv6 addresses span 1/2/3
// prefixes at each length over the analysis week (Figure 4).
func (s perFigureFeeds) Fig4() Fig4Result {
	from, to := AnalysisWeek()
	users := core.NewUserCentricFor(false)
	aas := core.NewUserCentricFor(true)
	s.Benign.Generate(from, to, users.Observe)
	s.Abusive.Generate(from, to, aas.Observe)
	return Fig4Result{
		Users:   users.PrefixSpans(Fig4Lengths),
		Abusive: aas.PrefixSpans(Fig4Lengths),
	}
}

// Fig5And6 computes address and prefix lifespans over a 28-day lookback
// ending on the analysis week's last day, for benign users
// (abusive=false) or abusive accounts (abusive=true).
func (s perFigureFeeds) Fig5And6(abusive bool) LifespanResult {
	_, ref := AnalysisWeek()
	ls := core.NewLifespans(ref, LifespanLengths...).Restrict(abusive)
	from := ref - 27
	if from < 0 {
		from = 0
	}
	if abusive {
		s.Abusive.Generate(from, ref, ls.Observe)
	} else {
		s.Benign.Generate(from, ref, ls.Observe)
	}
	return LifespanResult{
		AgeV4:    ls.AgeHist(netaddr.IPv4, 32),
		AgeV6:    ls.AgeHist(netaddr.IPv6, 128),
		MedianV4: ls.MedianAgePerUser(netaddr.IPv4, 32),
		MedianV6: ls.MedianAgePerUser(netaddr.IPv6, 128),
		FreshV4:  ls.FreshShares(netaddr.IPv4),
		FreshV6:  ls.FreshShares(netaddr.IPv6),
	}
}

// IPCentricWeek runs the IP-centric analyzers over the analysis week at
// the Figure 9 lengths, feeding both benign and abusive telemetry.
func (s perFigureFeeds) IPCentricWeek() IPCentricResult {
	from, to := AnalysisWeek()
	r := IPCentricResult{
		V4:    core.NewIPCentric(netaddr.IPv4, 32),
		V6:    make(map[int]*core.IPCentric, len(Fig9Lengths)),
		DayV4: core.NewIPCentric(netaddr.IPv4, 32),
		DayV6: core.NewIPCentric(netaddr.IPv6, 128),
	}
	for _, l := range Fig9Lengths {
		r.V6[l] = core.NewIPCentric(netaddr.IPv6, l)
	}
	feed := func(o telemetry.Observation) {
		r.V4.Observe(o)
		for _, ic := range r.V6 {
			ic.Observe(o)
		}
		if o.Day == from {
			r.DayV4.Observe(o)
			r.DayV6.Observe(o)
		}
	}
	s.Generate(from, to, feed)
	return r
}

// Outliers computes the §5.1.3/§6.1.3 outlier summary over the analysis
// week. Thresholds scale with the population (the paper's absolute
// counts come from a 0.1% sample of a billion-user platform).
func (s perFigureFeeds) Outliers() OutlierResult {
	from, to := AnalysisWeek()
	uc := core.NewUserCentric()
	s.Benign.Generate(from, to, uc.Observe)
	ipc := s.IPCentricWeek()

	userThresh := 30
	addrThresh := s.Scenario.Users / 1500
	if addrThresh < 20 {
		addrThresh = 20
	}
	r := OutlierResult{
		HeavyUserThreshold: userThresh,
		HeavyAddrThreshold: addrThresh,
		V4HeavyUsers:       uc.UsersWithMoreThan(netaddr.IPv4, userThresh),
		V6HeavyUsers:       uc.UsersWithMoreThan(netaddr.IPv6, userThresh),
		V4HeavyAddrs:       ipc.V4.PrefixesWithMoreThan(addrThresh),
		V6HeavyAddrs:       ipc.V6[128].PrefixesWithMoreThan(addrThresh),
		V6Concentration:    ipc.V6[128].ConcentrationAbove(addrThresh, s.World.ASNOf),
	}
	r.V6TopASNName = s.World.ASNName(r.V6Concentration.TopASN)
	if tops := uc.TopUsersByAddrs(netaddr.IPv4, 1); len(tops) > 0 {
		r.V4MaxAddrs = tops[0].Count
	}
	if tops := uc.TopUsersByAddrs(netaddr.IPv6, 1); len(tops) > 0 {
		r.V6MaxAddrs = tops[0].Count
	}
	if tops := ipc.V4.TopPrefixes(1); len(tops) > 0 {
		r.V4MaxUsers = tops[0].Users
	}
	if tops := ipc.V6[128].TopPrefixes(1); len(tops) > 0 {
		r.V6MaxUsers = tops[0].Users
	}
	if tops := ipc.V6[64].TopPrefixes(1); len(tops) > 0 {
		r.V6Max64Users = tops[0].Users
	}
	return r
}

// Fig11 runs the §7.1 actioning simulation: day n = Apr 18, day n+1 =
// Apr 19, sweeping DefaultThresholds at each granularity.
func (s perFigureFeeds) Fig11() Fig11Result {
	_, to := AnalysisWeek()
	dayN, dayN1 := to-1, to
	acts := make([]*core.Actioning, 0, 4)
	for _, g := range Fig11Granularities() {
		acts = append(acts, core.NewActioning(g.Family, g.Length, dayN, dayN1))
	}
	s.GenerateDay(dayN, func(o telemetry.Observation) {
		for _, a := range acts {
			a.Observe(o)
		}
	})
	s.GenerateDay(dayN1, func(o telemetry.Observation) {
		for _, a := range acts {
			a.Observe(o)
		}
	})
	r := Fig11Result{Curves: make(map[string]*stats.ROC, 4), DayN: dayN, DayN1: dayN1}
	for i, g := range Fig11Granularities() {
		r.Curves[g.Name] = acts[i].Curve(core.DefaultThresholds())
	}
	return r
}

// Advise runs the full §7.2 policy advisor at the given FPR tolerance,
// deriving every input from the simulation.
func (s perFigureFeeds) Advise(fprTolerance float64) core.Advice {
	roc := s.Fig11()
	ipc := s.IPCentricWeek()
	life := s.Fig5And6(false)

	v6Users := make(map[int]*stats.IntHist, len(Fig9Lengths))
	v6Abusive := make(map[int]*stats.IntHist, len(Fig9Lengths))
	for l, ic := range ipc.V6 {
		v6Users[l] = ic.UsersPerPrefix()
		v6Abusive[l] = ic.AbusivePerAbusivePrefix()
	}
	freshV6 := 0.0
	if life.AgeV6.N() > 0 {
		freshV6 = life.AgeV6.CDFAt(0)
	}
	return core.Advise(core.AdvisorInputs{
		ROC128:             roc.Curves["/128"],
		ROC64:              roc.Curves["/64"],
		ROCV4:              roc.Curves["IPv4"],
		FPRTolerance:       fprTolerance,
		UsersPerV6Addr:     ipc.V6[128].UsersPerPrefix(),
		UsersPerV4Addr:     ipc.V4.UsersPerPrefix(),
		UsersPerV6Prefix:   v6Users,
		AbusivePerV6Prefix: v6Abusive,
		AbusivePerV4Addr:   ipc.V4.AbusivePerAbusivePrefix(),
		V6AddrFreshShare:   freshV6,
	})
}

// Segments computes the per-network-kind behavioral breakdown over the
// analysis week for benign users (§8 future work).
func (s perFigureFeeds) Segments() []core.SegmentReport {
	kinds := make(map[netmodel.ASN]netmodel.Kind, len(s.World.Networks()))
	for _, n := range s.World.Networks() {
		kinds[n.ASN] = n.Kind
	}
	seg := core.NewSegmentation(core.ClassifyByASN(kinds))
	from, to := AnalysisWeek()
	s.Benign.Generate(from, to, seg.Observe)
	return seg.Report()
}

// TTLRecallCurve measures how recall decays with indicator age: the
// fraction of day (n+k) abusive accounts covered by day-n indicators,
// for k = 1..horizon (the threat-exchange decay experiment).
func (s perFigureFeeds) TTLRecallCurve(fam netaddr.Family, length int, horizon int) []float64 {
	day0 := simtime.AnalysisWeekStart
	indicators := make(map[netaddr.Prefix]struct{})
	s.Abusive.GenerateDay(day0, func(o telemetry.Observation) {
		if o.Addr.Family() == fam {
			indicators[netaddr.PrefixFrom(o.Addr, length)] = struct{}{}
		}
	})
	out := make([]float64, 0, horizon)
	for k := 1; k <= horizon; k++ {
		caught := make(map[uint64]struct{})
		total := make(map[uint64]struct{})
		s.Abusive.GenerateDay(day0+simtime.Day(k), func(o telemetry.Observation) {
			if o.Addr.Family() != fam {
				return
			}
			total[o.UserID] = struct{}{}
			if _, hit := indicators[netaddr.PrefixFrom(o.Addr, length)]; hit {
				caught[o.UserID] = struct{}{}
			}
		})
		if len(total) == 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, float64(len(caught))/float64(len(total)))
	}
	return out
}

// ChurnReasons attributes the analysis week's new (user, IPv6 address)
// pairs to causes — IID rotation, subnet moves, network switches — after
// a one-week warmup (the §8 "causes of dynamic IPv6 behavior" study).
func (s perFigureFeeds) ChurnReasons() core.ChurnBreakdown {
	from, to := AnalysisWeek()
	warmup := from - 7
	if warmup < 0 {
		warmup = 0
	}
	ca := core.NewChurnAttribution(from)
	s.Benign.Generate(warmup, to, ca.Observe)
	return ca.Breakdown()
}

// ComparePandemic runs the Appendix-A robustness check.
func (s perFigureFeeds) ComparePandemic() PandemicComparison {
	return PandemicComparison{
		Pre:      s.windowMetrics(20, 26),
		Lockdown: s.windowMetrics(simtime.AnalysisWeekStart, simtime.AnalysisWeekEnd),
	}
}

func (s perFigureFeeds) windowMetrics(from, to simtime.Day) PandemicWindowMetrics {
	uc := core.NewUserCentricFor(false)
	// Lifespans with a 14-day lookback so both windows use the same
	// horizon (the February window has less history before it).
	lookback := to - 13
	if lookback < 0 {
		lookback = 0
	}
	ls := core.NewLifespans(to, 32, 128).Restrict(false)
	s.Benign.Generate(lookback, to, func(o telemetry.Observation) {
		ls.Observe(o)
		if o.Day >= from {
			uc.Observe(o)
		}
	})

	m := PandemicWindowMetrics{From: from, To: to}
	m.MedianV4Addrs = uc.AddrsPerUser(netaddr.IPv4).Median()
	m.MedianV6Addrs = uc.AddrsPerUser(netaddr.IPv6).Median()
	for _, span := range uc.PrefixSpans([]int{64}) {
		if span.Length == 64 {
			m.SingleSlash64Share = span.One
		}
	}
	if h := ls.AgeHist(netaddr.IPv4, 32); h.N() > 0 {
		m.FreshV4 = h.CDFAt(0)
	}
	if h := ls.AgeHist(netaddr.IPv6, 128); h.N() > 0 {
		m.FreshV6 = h.CDFAt(0)
	}
	return m
}

// SketchedOutliers exercises the production-scale counting path.
func (s perFigureFeeds) SketchedOutliers(length int) SketchedOutliersResult {
	from, to := AnalysisWeek()
	sk := core.NewSketchedIPCentric(netaddr.IPv6, length, 2048)
	exact := core.NewIPCentric(netaddr.IPv6, length)
	s.Generate(from, to, func(o telemetry.Observation) {
		sk.Observe(o)
		exact.Observe(o)
	})
	topErr, recall := core.CompareExact(sk, exact, 10)
	return SketchedOutliersResult{
		Top:            sk.Top(10),
		TopError:       topErr,
		HeavyRecall:    recall,
		PrefixEstimate: sk.Prefixes(),
		ExactPrefixes:  exact.Prefixes(),
	}
}

// ScraperDefense runs logged-out request-rate limiting over one analysis
// day with benign traffic plus the scraper fleet, at /128 and /64 for
// each budget. Scrapers hop IIDs inside their /64, so per-address caps
// leak most of their volume; the /64 limiter (whose budget is 10x the
// per-address budget, since whole households and sites share a /64)
// catches what hopping hides.
func (s perFigureFeeds) ScraperDefense(caps []uint64) []ScraperDefenseResult {
	day := simtime.AnalysisWeekStart
	grans := []struct {
		name   string
		length int
		mult   uint64
	}{{"/128", 128, 1}, {"/64", 64, 10}}

	limiters := make([]*requestRateLimit, 0, len(grans)*len(caps))
	var results []ScraperDefenseResult
	for _, g := range grans {
		for _, c := range caps {
			budget := c * g.mult
			limiters = append(limiters, newRequestRateLimit(netaddr.IPv6, g.length, budget))
			results = append(results, ScraperDefenseResult{Name: g.name, Length: g.length, CapPerDay: budget})
		}
	}
	feed := func(o telemetry.Observation) {
		// The §7.2 carve-out: heavily populated gateway addresses are
		// predictable from their structured IIDs, so the rate limiter
		// exempts them (they get a dedicated policy) rather than
		// throttling hundreds of legitimate users behind one address.
		if netaddr.IsStructuredIID(o.Addr) {
			return
		}
		for _, l := range limiters {
			l.Observe(o)
		}
	}
	s.Benign.GenerateDay(day, feed)
	s.Scrapers().GenerateDay(day, feed)
	for i, l := range limiters {
		results[i].BenignLossShare = l.BenignLossShare()
		results[i].ScraperBlockShare = l.AbusiveBlockShare()
	}
	return results
}

// DetectHijacks runs a simple IP-novelty detector over the full study
// window: flag an account when it appears on a hosting/proxy-network
// address after having been seen only on access networks — the paper's
// suggested use of user-level IP features for compromise detection.
func (s perFigureFeeds) DetectHijacks() HijackDetectionResult {
	hijacks := s.Hijacks()
	hosting := make(map[netmodel.ASN]bool)
	for _, n := range s.World.Hosting {
		hosting[n.ASN] = true
	}
	for _, n := range s.World.Proxies {
		hosting[n.ASN] = true
	}

	// Pass: accumulate per-user "seen on access network" then flag on a
	// hosting appearance. Stream day by day, benign first (so a victim
	// has history before the compromise fires, as in reality).
	established := make(map[uint64]bool)
	flagged := make(map[uint64]bool)
	observe := func(o telemetry.Observation) {
		if hosting[o.ASN] {
			if established[o.UserID] && !flagged[o.UserID] {
				flagged[o.UserID] = true
			}
			return
		}
		established[o.UserID] = true
	}
	for d := simtime.Day(0); d < simtime.StudyDays; d++ {
		s.Benign.GenerateDay(d, observe)
		hijacks.GenerateDay(d, observe)
	}

	victims := hijacks.Victims()
	victimSet := make(map[uint64]bool, len(victims))
	for _, v := range victims {
		victimSet[v.UserID] = true
	}
	var r HijackDetectionResult
	r.Victims = len(victims)
	r.Users = len(established)
	for uid := range flagged {
		if victimSet[uid] {
			r.Detected++
		} else {
			r.FalseAlarms++
		}
	}
	if r.Victims > 0 {
		r.Recall = float64(r.Detected) / float64(r.Victims)
	}
	if r.Users > 0 {
		r.FalseAlarmShare = float64(r.FalseAlarms) / float64(r.Users)
	}
	return r
}

// requestRateLimit is internal/core's reference request limiter
// (RequestRateLimit in reqlimit_ref_test.go), which ScraperDefense's
// reference feeds. A package's test files are not visible to another
// package's tests, so it is repeated here, renamed.
type requestRateLimit struct {
	Family netaddr.Family
	Length int
	// CapPerDay is the request budget per prefix-day.
	CapPerDay uint64

	used map[dayPrefixKey]uint64
	// Tallies.
	BenignAdmitted, BenignThrottled   uint64
	AbusiveAdmitted, AbusiveThrottled uint64
}

// dayPrefixKey identifies one prefix on one day.
type dayPrefixKey struct {
	day simtime.Day
	pfx netaddr.Prefix
}

// newRequestRateLimit returns a limiter at one granularity and budget.
func newRequestRateLimit(fam netaddr.Family, length int, capPerDay uint64) *requestRateLimit {
	if capPerDay < 1 {
		capPerDay = 1
	}
	return &requestRateLimit{
		Family:    fam,
		Length:    length,
		CapPerDay: capPerDay,
		used:      make(map[dayPrefixKey]uint64),
	}
}

// Observe feeds one observation, splitting its requests into admitted
// and throttled against the prefix-day budget.
func (r *requestRateLimit) Observe(o telemetry.Observation) {
	if o.Addr.Family() != r.Family || r.Length > o.Addr.Bits() {
		return
	}
	dk := dayPrefixKey{day: o.Day, pfx: netaddr.PrefixFrom(o.Addr, r.Length)}
	used := r.used[dk]
	admit := uint64(0)
	if used < r.CapPerDay {
		admit = r.CapPerDay - used
		if admit > uint64(o.Requests) {
			admit = uint64(o.Requests)
		}
	}
	throttled := uint64(o.Requests) - admit
	r.used[dk] = used + admit
	if o.Abusive {
		r.AbusiveAdmitted += admit
		r.AbusiveThrottled += throttled
	} else {
		r.BenignAdmitted += admit
		r.BenignThrottled += throttled
	}
}

// BenignLossShare returns the fraction of benign requests throttled.
func (r *requestRateLimit) BenignLossShare() float64 {
	total := r.BenignAdmitted + r.BenignThrottled
	if total == 0 {
		return 0
	}
	return float64(r.BenignThrottled) / float64(total)
}

// AbusiveBlockShare returns the fraction of abusive requests throttled.
func (r *requestRateLimit) AbusiveBlockShare() float64 {
	total := r.AbusiveAdmitted + r.AbusiveThrottled
	if total == 0 {
		return 0
	}
	return float64(r.AbusiveThrottled) / float64(total)
}

// runFigure registers one figure on a fresh Paper over sim, runs the
// paper and returns what the figure reads.
func runFigure[R any](sim *Sim, register func(*Paper) func() R) R {
	p := NewPaper(sim)
	read := register(p)
	p.Run()
	return read()
}

// A reference computes an experiment's result from the per-figure
// feeds. An experiment whose reference is elsewhere names, instead,
// the test that checks it.
type reference struct {
	want      func(perFigureFeeds) any
	elsewhere string
}

// ipCentricWeek is Figures 7–10's one reference: all four read
// IPCentricWeek.
var ipCentricWeek = &reference{want: func(s perFigureFeeds) any { return s.IPCentricWeek() }}

// references are the experiments' per-figure references, by name.
var references = map[string]*reference{
	"fig1":       {want: func(s perFigureFeeds) any { return s.Fig1(0, simtime.StudyDays-1) }},
	"table1":     {want: func(s perFigureFeeds) any { return s.Table1(AnalysisWeek()) }},
	"table2":     {want: func(s perFigureFeeds) any { return s.Table2() }},
	"clientaddr": {want: func(s perFigureFeeds) any { return s.ClientAddrPatterns() }},
	"fig2":       {want: func(s perFigureFeeds) any { return s.Fig2() }},
	"fig3":       {want: func(s perFigureFeeds) any { return s.Fig3() }},
	"fig4":       {want: func(s perFigureFeeds) any { return s.Fig4() }},
	"fig5":       {want: func(s perFigureFeeds) any { return s.Fig5And6(false) }},
	"fig6": {want: func(s perFigureFeeds) any {
		return []Labeled[LifespanResult]{{"users", s.Fig5And6(false)}, {"abusive accounts", s.Fig5And6(true)}}
	}},
	"fig7":     ipCentricWeek,
	"fig8":     ipCentricWeek,
	"fig9":     ipCentricWeek,
	"fig10":    ipCentricWeek,
	"fig11":    {want: func(s perFigureFeeds) any { return s.Fig11() }},
	"outliers": {want: func(s perFigureFeeds) any { return s.Outliers() }},
	"advise": {want: func(s perFigureFeeds) any {
		out := make([]core.Advice, len(adviseTolerances))
		for i, tol := range adviseTolerances {
			out[i] = s.Advise(tol)
		}
		return out
	}},
	"scrapers":        {want: func(s perFigureFeeds) any { return s.ScraperDefense(scraperCaps) }},
	"hijacks":         {want: func(s perFigureFeeds) any { return s.DetectHijacks() }},
	"pandemic":        {want: func(s perFigureFeeds) any { return s.ComparePandemic() }},
	"segments":        {want: func(s perFigureFeeds) any { return s.Segments() }},
	"blocklist-sweep": {elsewhere: "internal/core's TestActioningMatchesReferenceSims, against BlocklistSim"},
	"ratelimit-sweep": {elsewhere: "internal/core's TestActioningMatchesReferenceSims, against RateLimitSim"},
	"sketched":        {want: func(s perFigureFeeds) any { return s.SketchedOutliers(sketchLength) }},
	"ttlcurve": {want: func(s perFigureFeeds) any {
		var out []Labeled[[]float64]
		for _, g := range sweepGranularities {
			out = append(out, Labeled[[]float64]{g.column, s.TTLRecallCurve(g.family, g.length, ttlHorizon)})
		}
		return out
	}},
	"churn":        {want: func(s perFigureFeeds) any { return s.ChurnReasons() }},
	"fig12":        {want: func(s perFigureFeeds) any { return s.CountryRatios() }},
	"fig6-abusive": {want: func(s perFigureFeeds) any { return s.Fig5And6(true) }},
}

// testOnly are registrations the paper tests check beside the
// registry's, with rows of their own. fig6 registers its abusive
// accounts' lifespans only next to its users', so they are also checked
// alone: alone they must compute as their reference does and generate
// no benign day.
var testOnly = []Experiment{
	{Name: "fig6-abusive", Register: result(func(p *Paper) func() LifespanResult { return p.Fig5And6(true) })},
}

// checked are the registrations the paper tests check: the registry's
// and testOnly.
func checked() []Experiment { return slices.Concat(Experiments, testOnly) }

// checkKeys fails t unless the keys of rows, a table of what, name the
// checked registrations one to one.
func checkKeys[V any](t *testing.T, what string, rows map[string]V) {
	t.Helper()
	names := make(map[string]bool, len(Experiments))
	for _, e := range checked() {
		names[e.Name] = true
		if _, ok := rows[e.Name]; !ok {
			t.Fatalf("%s: no %s row", e.Name, what)
		}
	}
	for name := range rows {
		if !names[name] {
			t.Fatalf("%s row %s: no experiment of that name", what, name)
		}
	}
}

// registrations returns what register registers on a fresh Paper over
// sim: each analyzer with its configuration, days and populations.
func registrations(sim *Sim, register func(*Paper) func() any) map[reg]bool {
	p := NewPaper(sim)
	register(p)
	regs := make(map[reg]bool, len(p.memo))
	for r := range p.memo {
		regs[r] = true
	}
	return regs
}

// TestPaperMatchesPerFigureFeeds: one Paper with every experiment
// registered, and one Paper per experiment alone, each fed by its one
// generation pass, give every experiment's result exactly as its
// per-figure reference does, down to the analyzers' state where a
// result holds them (Figures 7–10). Each distinct reference is
// computed once per seed, and experiments that share a reference and
// register the same analyzers (Figures 7–10) run alone once.
func TestPaperMatchesPerFigureFeeds(t *testing.T) {
	checkKeys(t, "reference", references)
	for name, ref := range references {
		if ref.want == nil && ref.elsewhere == "" {
			t.Fatalf("%s: no reference, and no test named that checks it", name)
		}
	}
	for _, seed := range []uint64{1, 2} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			sim := NewSim(DefaultScenario(2_000).WithSeed(seed))
			exps := checked()
			all := NewPaper(sim)
			reads := make([]func() any, len(exps))
			for i, e := range exps {
				reads[i] = e.Register(all)
			}
			all.Run()
			wants := map[*reference]any{}
			ranAlone := map[*reference][]map[reg]bool{}
			for i, e := range exps {
				ref := references[e.Name]
				if ref.want == nil {
					continue
				}
				want, done := wants[ref]
				if !done {
					want = ref.want(perFigureFeeds{sim})
					wants[ref] = want
				}
				regs := registrations(sim, e.Register)
				if !slices.ContainsFunc(ranAlone[ref], func(r map[reg]bool) bool { return maps.Equal(r, regs) }) {
					ranAlone[ref] = append(ranAlone[ref], regs)
					if got := runFigure(sim, e.Register); !reflect.DeepEqual(got, want) {
						t.Errorf("%s alone:\n got %+v\nwant %+v", e.Name, got, want)
					}
				}
				if got := reads[i](); !reflect.DeepEqual(got, want) {
					t.Errorf("%s with every experiment registered:\n got %+v\nwant %+v", e.Name, got, want)
				}
			}
		})
	}
}

// TestPaperGeneratesOnlyReadDays: an experiment registered alone makes
// Run generate the days and populations it reads, each once, and
// nothing else. These are the days its per-figure reference generates,
// except that the TTL curve reads the week-long Actioning the blocklist
// and rate-limit sweeps share, so it generates both populations' week.
// The sketched outliers generate the week again for their sketch when
// read, which is after Run and not counted here.
func TestPaperGeneratesOnlyReadDays(t *testing.T) {
	type window struct {
		pop      reads
		from, to simtime.Day
	}
	in := func(pop reads) func(from, to simtime.Day) window {
		return func(from, to simtime.Day) window { return window{pop, from, to} }
	}
	benign, abusive, hijack, scraper := in(benignPop), in(abusivePop), in(hijackPop), in(scraperPop)
	week := []window{benign(81, 87), abusive(81, 87)}
	windowsOf := map[string][]window{
		"fig1":            {benign(0, 87)},
		"table1":          {benign(81, 87)},
		"table2":          {benign(0, 6), benign(81, 87)},
		"clientaddr":      {benign(81, 87)},
		"fig2":            {benign(81, 87)},
		"fig3":            {abusive(81, 87)},
		"fig4":            week,
		"fig5":            {benign(60, 87)},
		"fig6":            {benign(60, 87), abusive(60, 87)},
		"fig7":            week,
		"fig8":            week,
		"fig9":            week,
		"fig10":           week,
		"fig11":           {benign(86, 87), abusive(86, 87)},
		"outliers":        week,
		"advise":          {benign(60, 87), abusive(81, 87)},
		"scrapers":        {benign(81, 81), scraper(81, 81)},
		"hijacks":         {benign(0, 87), hijack(0, 87)},
		"pandemic":        {benign(13, 26), benign(74, 87)},
		"segments":        {benign(81, 87)},
		"blocklist-sweep": week,
		"ratelimit-sweep": week,
		"sketched":        week,
		"ttlcurve":        week,
		"churn":           {benign(74, 87)},
		"fig12":           {benign(81, 87)},
		"fig6-abusive":    {abusive(60, 87)},
	}
	checkKeys(t, "window", windowsOf)
	// count tallies observations per (day, population).
	type dayPop struct {
		day simtime.Day
		pop reads
	}
	count := func(m map[dayPop]int, pop reads) telemetry.EmitFunc {
		return func(o telemetry.Observation) { m[dayPop{o.Day, pop}]++ }
	}
	sim := NewSim(DefaultScenario(300))
	gens := map[reads]func(from, to simtime.Day, emit telemetry.EmitFunc){
		benignPop: sim.Benign.Generate, abusivePop: sim.Abusive.Generate,
		hijackPop: sim.Hijacks().Generate, scraperPop: sim.Scrapers().Generate,
	}
	for _, e := range checked() {
		want := map[dayPop]int{}
		for _, w := range windowsOf[e.Name] {
			n := len(want)
			gens[w.pop](w.from, w.to, count(want, w.pop))
			if len(want) == n {
				t.Fatalf("%s: window %+v generates nothing, so it is not checked", e.Name, w)
			}
		}
		got := map[dayPop]int{}
		p := NewPaper(sim)
		e.Register(p)
		for i, set := range p.sets {
			tap := observerFunc(count(got, 1<<i))
			core.AddCommutativeAnalyzer(set, tap, func() observerFunc { return tap }, func(_, _ observerFunc) {})
		}
		p.Run()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: generated (day, population) counts\n got %v\nwant %v", e.Name, got, want)
		}
	}
}

// observerFunc adapts a function to core.Observer.
type observerFunc func(telemetry.Observation)

func (f observerFunc) Observe(o telemetry.Observation) { f(o) }
