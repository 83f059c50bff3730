package userv6

// Every table and figure of the paper's evaluation (§4–7) is a cut of
// one telemetry stream over the study window. A Paper registers each
// figure's analyzers and feeds them all from one generation pass.

import (
	"fmt"

	"userv6/internal/core"
	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/simtime"
	"userv6/internal/stats"
	"userv6/internal/telemetry"
)

// Fig4Lengths are the prefix lengths swept by Figure 4.
var Fig4Lengths = []int{32, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72, 80, 96, 112, 128}

// Fig9Lengths are the prefix lengths compared in Figure 9 (plus IPv4).
var Fig9Lengths = []int{128, 96, 72, 68, 64, 56, 48, 44}

// Paper reproduces the paper's figures and tables, and its §8 and
// Appendix A extensions, from one pass over the simulation's telemetry.
// Each figure method registers the analyzers its figure reads and
// returns a function that reads the result once Run has fed them.
// Paper keeps one registration per (analyzer, configuration, window,
// populations), so figures that read the same analyzer share it.
//
// Run generates four populations, each into an AnalyzerSet of its own:
// benign users (user by user), then abusive accounts, the attacker
// sightings of hijacked accounts and scraper bots (day by day). It
// generates only the days the registrations read, each maximal run of
// days once. Generation is a pure function of (entity, day), so every
// registration sees what a generation of its own window would give it.
//
// A function a figure method returns holds the analyzers its figure
// reads and not the Paper, so state that no remaining reader holds can
// be collected once the Paper itself is dropped.
type Paper struct {
	Sim *Sim

	// sets[i] is population i's set, and days[i][d] is set when a
	// registration reads day d of it.
	sets [populations]*core.AnalyzerSet
	days [populations][simtime.StudyDays]bool
	memo map[reg]any
	ran  bool
}

// reads is a set of the populations Run generates, one bit each.
type reads uint8

const (
	benignPop  reads = 1 << iota // Sim.Benign's users
	abusivePop                   // Sim.Abusive's accounts
	hijackPop                    // Sim.Hijacks' attacker sightings
	scraperPop                   // Sim.Scrapers' bots

	populations = iota // their number
)

// entityPop is benign users' or abusive accounts' population.
func entityPop(abusive bool) reads {
	if abusive {
		return abusivePop
	}
	return benignPop
}

// reg names one registration: its analyzer and configuration, and the
// days [from, to] it reads of each population in pops.
type reg struct {
	analyzer string
	from, to simtime.Day
	pops     reads
}

// mergeable is an analyzer that folds another of its kind into itself,
// as core.AddCommutativeAnalyzer requires.
type mergeable[T any] interface {
	core.Observer
	Merge(T)
}

// register returns the analyzer r names. On first use it makes it with
// mk and adds it to the set of each population r reads, filtered to r's
// days and to what keep accepts (nil accepts all; r.analyzer names it).
func register[T mergeable[T]](p *Paper, r reg, mk func() T, keep func(telemetry.Observation) bool) T {
	if a, ok := p.memo[r]; ok {
		return a.(T)
	}
	if p.ran {
		panic("userv6: Paper figure registered after Run")
	}
	filter := func(o telemetry.Observation) bool {
		return o.Day >= r.from && o.Day <= r.to && (keep == nil || keep(o))
	}
	a := mk()
	for i, set := range p.sets {
		if r.pops&(1<<i) == 0 {
			continue
		}
		for d := r.from; d <= r.to; d++ {
			p.days[i][d] = true
		}
		core.AddCommutativeAnalyzerFiltered(set, a, mk, T.Merge, filter)
	}
	p.memo[r] = a
	return a
}

// NewPaper returns a Paper over sim with no figure registered.
func NewPaper(sim *Sim) *Paper {
	p := &Paper{Sim: sim, memo: make(map[reg]any)}
	for i := range p.sets {
		p.sets[i] = core.NewAnalyzerSet()
	}
	return p
}

// Run generates every registered day once and feeds each population's
// set. Call it once, after registering.
func (p *Paper) Run() {
	if p.ran {
		panic("userv6: Paper.Run called twice")
	}
	p.ran = true
	gens := [populations]func(from, to simtime.Day, emit telemetry.EmitFunc){
		p.Sim.Benign.Generate, p.Sim.Abusive.Generate, p.Sim.Hijacks().Generate, p.Sim.Scrapers().Generate,
	}
	for i, gen := range gens {
		days := &p.days[i]
		for d := 0; d < len(days); d++ {
			if !days[d] {
				continue
			}
			from := d
			for d+1 < len(days) && days[d+1] {
				d++
			}
			gen(simtime.Day(from), simtime.Day(d), p.sets[i].Observe)
		}
	}
}

// Fig1 registers the daily IPv6 prevalence series over the study
// window (Figure 1). Only benign traffic counts, as in the paper's user
// and request random samples.
func (p *Paper) Fig1() func() []core.DayShare {
	return p.prevalence(0, simtime.StudyDays-1).Daily
}

// prevalence registers a Prevalence over benign days [from, to].
func (p *Paper) prevalence(from, to simtime.Day) *core.Prevalence {
	return register(p, reg{"Prevalence", from, to, benignPop}, core.NewPrevalence, nil)
}

// Table1Result is the ASN prevalence table plus the §4.2 bands.
type Table1Result struct {
	Rows              []core.RatioRow
	ZeroShare         float64
	UnderTenShare     float64
	QualifyingASNs    int
	MinUsersThreshold int
}

// Table1 registers the ASN ranking by IPv6 user ratio over the
// analysis week (Table 1).
func (p *Paper) Table1() func() Table1Result {
	prev, s := p.prevalence(AnalysisWeek()), p.Sim
	return func() Table1Result {
		minUsers := max(s.Scenario.Users/150, 20)
		zero, under, total := prev.ASNShareBands(minUsers)
		rows := prev.TopASNs(minUsers, 10, s.World.ASNName)
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
			MinUsersThreshold: minUsers,
		}
	}
}

// Table2Result holds country IPv6 ratios for two comparison windows.
type Table2Result struct {
	January, April []core.RatioRow
	// Germany captures the lockdown shift (Appendix A.2).
	GermanyJan, GermanyApr float64
	GreeceJan, GreeceApr   float64
}

// Table2 registers country IPv6 user ratios for the Jan 23-29 and
// Apr 13-19 weeks (Table 2 / Figure 12).
func (p *Paper) Table2() func() Table2Result {
	jan := p.prevalence(simtime.JanWeekStart, simtime.JanWeekEnd)
	apr := p.prevalence(AnalysisWeek())
	minUsers := p.countryMinUsers()
	return func() Table2Result {
		var r Table2Result
		r.January = jan.TopCountries(minUsers, 10)
		r.April = apr.TopCountries(minUsers, 10)
		r.GermanyJan, _ = jan.CountryRatio("DE")
		r.GermanyApr, _ = apr.CountryRatio("DE")
		r.GreeceJan, _ = jan.CountryRatio("GR")
		r.GreeceApr, _ = apr.CountryRatio("GR")
		return r
	}
}

// countryMinUsers is the population a country needs to be ranked.
func (p *Paper) countryMinUsers() int {
	return max(p.Sim.Scenario.Users/1000, 10)
}

// CountryRatios registers every qualifying country's IPv6 user ratio
// over the analysis week, descending — the data behind the Figure 12
// choropleth.
func (p *Paper) CountryRatios() func() []core.RatioRow {
	prev, minUsers := p.prevalence(AnalysisWeek()), p.countryMinUsers()
	return func() []core.RatioRow {
		return prev.TopCountries(minUsers, 0)
	}
}

// ClientAddrPatterns registers the §4.4 transition-protocol and IID
// structure summary over the analysis week.
func (p *Paper) ClientAddrPatterns() func() core.ClientAddrPatterns {
	return p.weekUserCentric(false).AddrPatterns
}

// AddrsPerUserResult holds Figure 2/3 histograms: distinct addresses per
// entity for one day and one week, per family.
type AddrsPerUserResult struct {
	DayV4, DayV6, WeekV4, WeekV6 *stats.IntHist
	Entities                     int
}

// Fig2 registers benign addresses-per-user CDF inputs (Figure 2) over
// the analysis week, with the single-day cut on the week's last day.
func (p *Paper) Fig2() func() AddrsPerUserResult {
	return p.addrsPerEntity(false)
}

// Fig3 registers the abusive-account equivalent (Figure 3).
func (p *Paper) Fig3() func() AddrsPerUserResult {
	return p.addrsPerEntity(true)
}

func (p *Paper) addrsPerEntity(abusive bool) func() AddrsPerUserResult {
	_, to := AnalysisWeek()
	week := p.weekUserCentric(abusive)
	day := p.userCentric(abusive, to, to)
	return func() AddrsPerUserResult {
		return AddrsPerUserResult{
			DayV4:    day.AddrsPerUser(netaddr.IPv4),
			DayV6:    day.AddrsPerUser(netaddr.IPv6),
			WeekV4:   week.AddrsPerUser(netaddr.IPv4),
			WeekV6:   week.AddrsPerUser(netaddr.IPv6),
			Entities: week.Users(),
		}
	}
}

// userCentric registers a UserCentric over one population's days
// [from, to].
func (p *Paper) userCentric(abusive bool, from, to simtime.Day) *core.UserCentric {
	return register(p, reg{"UserCentric", from, to, entityPop(abusive)},
		func() *core.UserCentric { return core.NewUserCentricFor(abusive) }, nil)
}

// weekUserCentric is one population's analysis-week UserCentric, which
// Figures 2–4, §4.4, RQ3 and Appendix A read.
func (p *Paper) weekUserCentric(abusive bool) *core.UserCentric {
	return p.userCentric(abusive, simtime.AnalysisWeekStart, simtime.AnalysisWeekEnd)
}

// Fig4Result holds the prefix-span curves for users and abusive
// accounts.
type Fig4Result struct {
	Users, Abusive []core.SpanShare
}

// Fig4 registers the share of entities whose IPv6 addresses span 1/2/3
// prefixes at each length over the analysis week (Figure 4).
func (p *Paper) Fig4() func() Fig4Result {
	users, aas := p.weekUserCentric(false), p.weekUserCentric(true)
	return func() Fig4Result {
		return Fig4Result{
			Users:   users.PrefixSpans(Fig4Lengths),
			Abusive: aas.PrefixSpans(Fig4Lengths),
		}
	}
}

// LifespanResult holds Figure 5/6 outputs for one population.
type LifespanResult struct {
	// AgeV4/AgeV6 are the pair-age histograms at address granularity;
	// MedianV4/MedianV6 the per-user median age histograms (Figure 5).
	AgeV4, AgeV6       *stats.IntHist
	MedianV4, MedianV6 *stats.IntHist
	// FreshV4/FreshV6 are Figure 6's per-length freshness curves.
	FreshV4, FreshV6 []core.FreshShare
}

// LifespanLengths are the prefix lengths Figure 6 sweeps.
var LifespanLengths = []int{8, 16, 24, 32, 48, 64, 80, 96, 112, 128}

// Fig5And6 registers address and prefix lifespans over a 28-day
// lookback ending on the analysis week's last day, for benign users
// (abusive=false) or abusive accounts (abusive=true).
func (p *Paper) Fig5And6(abusive bool) func() LifespanResult {
	ls := p.lifespans(abusive)
	return func() LifespanResult {
		return LifespanResult{
			AgeV4:    ls.AgeHist(netaddr.IPv4, 32),
			AgeV6:    ls.AgeHist(netaddr.IPv6, 128),
			MedianV4: ls.MedianAgePerUser(netaddr.IPv4, 32),
			MedianV6: ls.MedianAgePerUser(netaddr.IPv6, 128),
			FreshV4:  ls.FreshShares(netaddr.IPv4),
			FreshV6:  ls.FreshShares(netaddr.IPv6),
		}
	}
}

// lifespans is one population's Lifespans, which Figures 5–6 and §7.2
// read.
func (p *Paper) lifespans(abusive bool) *core.Lifespans {
	_, ref := AnalysisWeek()
	return p.lifespansAt(abusive, ref, ref-27, LifespanLengths)
}

// lifespansAt registers a Lifespans of one population with reference
// day ref and the given lengths, over days [from, ref].
func (p *Paper) lifespansAt(abusive bool, ref, from simtime.Day, lengths []int) *core.Lifespans {
	return register(p, reg{fmt.Sprint("Lifespans ", lengths), from, ref, entityPop(abusive)},
		func() *core.Lifespans { return core.NewLifespans(ref, lengths...).Restrict(abusive) }, nil)
}

// IPCentricResult bundles the per-granularity population analyzers for
// Figures 7-10 and the outlier work. Keys are prefix lengths; V4 holds
// the IPv4 address analyzer.
type IPCentricResult struct {
	V4 *core.IPCentric
	V6 map[int]*core.IPCentric
	// DayV4/DayV6 are single-day views (first day of the window).
	DayV4, DayV6 *core.IPCentric
}

// IPCentricWeek registers the IP-centric analyzers over the analysis
// week at the Figure 9 lengths, reading both benign and abusive
// telemetry.
func (p *Paper) IPCentricWeek() func() IPCentricResult {
	from, to := AnalysisWeek()
	r := IPCentricResult{
		V4:    p.ipCentric(netaddr.IPv4, 32, from, to),
		V6:    make(map[int]*core.IPCentric, len(Fig9Lengths)),
		DayV4: p.ipCentric(netaddr.IPv4, 32, from, from),
		DayV6: p.ipCentric(netaddr.IPv6, 128, from, from),
	}
	for _, l := range Fig9Lengths {
		r.V6[l] = p.ipCentric(netaddr.IPv6, l, from, to)
	}
	return func() IPCentricResult { return r }
}

// ipCentric registers an IPCentric over benign users' and abusive
// accounts' days [from, to].
func (p *Paper) ipCentric(fam netaddr.Family, length int, from, to simtime.Day) *core.IPCentric {
	return register(p, reg{fmt.Sprintf("IPCentric %v/%d", fam, length), from, to, benignPop | abusivePop},
		func() *core.IPCentric { return core.NewIPCentric(fam, length) }, nil)
}

// OutlierResult summarizes RQ3: extreme users and extreme prefixes.
type OutlierResult struct {
	// Users with more than K addresses, per family, and the maxima.
	HeavyUserThreshold         int
	V4HeavyUsers, V6HeavyUsers int
	V4MaxAddrs, V6MaxAddrs     int
	// Addresses with more than K users, per family, and the maxima.
	HeavyAddrThreshold         int
	V4HeavyAddrs, V6HeavyAddrs int
	V4MaxUsers, V6MaxUsers     int
	V6Max64Users               int
	// Concentration of heavy IPv6 addresses (ASN / structured IIDs).
	V6Concentration core.HeavyConcentration
}

// Outliers registers the §5.1.3/§6.1.3 outlier summary over the
// analysis week. Thresholds scale with the population (the paper's
// absolute counts come from a 0.1% sample of a billion-user platform).
func (p *Paper) Outliers() func() OutlierResult {
	uc, ipcWeek, s := p.weekUserCentric(false), p.IPCentricWeek(), p.Sim
	return func() OutlierResult {
		ipc := ipcWeek()
		userThresh := 30
		addrThresh := max(s.Scenario.Users/1500, 20)
		r := OutlierResult{
			HeavyUserThreshold: userThresh,
			HeavyAddrThreshold: addrThresh,
			V4HeavyUsers:       uc.UsersWithMoreThan(netaddr.IPv4, userThresh),
			V6HeavyUsers:       uc.UsersWithMoreThan(netaddr.IPv6, userThresh),
			V4HeavyAddrs:       ipc.V4.PrefixesWithMoreThan(addrThresh),
			V6HeavyAddrs:       ipc.V6[128].PrefixesWithMoreThan(addrThresh),
			V6Concentration:    ipc.V6[128].ConcentrationAbove(addrThresh, s.World.ASNOf),
		}
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
}

// Fig11Granularity identifies one ROC curve of Figure 11.
type Fig11Granularity struct {
	Name   string
	Family netaddr.Family
	Length int
}

// Fig11Granularities returns the four granularities the paper plots.
func Fig11Granularities() []Fig11Granularity {
	return []Fig11Granularity{
		{Name: "/128", Family: netaddr.IPv6, Length: 128},
		{Name: "/64", Family: netaddr.IPv6, Length: 64},
		{Name: "/56", Family: netaddr.IPv6, Length: 56},
		{Name: "IPv4", Family: netaddr.IPv4, Length: 32},
	}
}

// Fig11Result maps granularity name to its ROC curve.
type Fig11Result struct {
	Curves map[string]*stats.ROC
	// DayN and DayN1 are the evaluation days used.
	DayN, DayN1 simtime.Day
}

// Fig11 registers the §7.1 actioning simulation: day n = Apr 18, day
// n+1 = Apr 19, sweeping DefaultThresholds at each granularity.
func (p *Paper) Fig11() func() Fig11Result {
	_, to := AnalysisWeek()
	dayN, dayN1 := to-1, to
	var acts []*core.Actioning
	for _, g := range Fig11Granularities() {
		acts = append(acts, p.actioning(g.Family, g.Length, dayN, dayN1))
	}
	return func() Fig11Result {
		r := Fig11Result{Curves: make(map[string]*stats.ROC, 4), DayN: dayN, DayN1: dayN1}
		for i, g := range Fig11Granularities() {
			r.Curves[g.Name] = acts[i].Curve(core.DefaultThresholds())
		}
		return r
	}
}

// actioning registers an Actioning over benign users' and abusive
// accounts' days [from, to].
func (p *Paper) actioning(fam netaddr.Family, length int, from, to simtime.Day) *core.Actioning {
	return register(p, reg{fmt.Sprintf("Actioning %v/%d", fam, length), from, to, benignPop | abusivePop},
		func() *core.Actioning { return core.NewActioning(fam, length, from, to) }, nil)
}

// Advise registers the full §7.2 policy advisor, deriving every input
// from the simulation: Figure 11's ROC curves, the week's IP-centric
// sweep and the benign lifespans. The returned function advises at any
// FPR tolerance.
func (p *Paper) Advise() func(fprTolerance float64) core.Advice {
	fig11, ipcWeek, life := p.Fig11(), p.IPCentricWeek(), p.lifespans(false)
	return func(fprTolerance float64) core.Advice {
		roc, ipc := fig11(), ipcWeek()
		v6Users := make(map[int]*stats.IntHist, len(Fig9Lengths))
		v6Abusive := make(map[int]*stats.IntHist, len(Fig9Lengths))
		for l, ic := range ipc.V6 {
			v6Users[l] = ic.UsersPerPrefix()
			v6Abusive[l] = ic.AbusivePerAbusivePrefix()
		}
		freshV6 := 0.0
		if age := life.AgeHist(netaddr.IPv6, 128); age.N() > 0 {
			freshV6 = age.CDFAt(0)
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
}
