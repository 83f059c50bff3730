package main

import (
	"fmt"
	"strings"

	"userv6/internal/core"
	"userv6/internal/dataset"
	"userv6/internal/netaddr"
	"userv6/internal/simtime"
	"userv6/internal/stats"
	"userv6/internal/telemetry"
)

// analyzers is the benchmark's analyzer set: the CLI analyze set
// (user-centric; IP-centric at v4/32, v6/128 and v6/64; churn) plus
// lifespans and prevalence, seven registrations covering Figures 1, 2,
// 5-7 and 9. Next to the AnalyzerSet the production entry points
// consume, it keeps the typed primaries for the digest and, per
// registration, the analyzer its replica factory built last, so the
// traced run can time each analyzer's Observe on the very replicas
// AnalyzerSet.Fold merges.
type analyzers struct {
	set     *core.AnalyzerSet
	names   []string
	filters []func(telemetry.Observation) bool
	primary []core.Observer
	made    []core.Observer

	uc               *core.UserCentric
	ic4, ic128, ic64 *core.IPCentric
	churn            *core.ChurnAttribution
	life             *core.Lifespans
	prev             *core.Prevalence
}

// newAnalyzers builds the set for a dataset window, with the CLI's
// parameters: churn counts from the window's second day (the first only
// builds address history) and lifespans take the last day as reference.
func newAnalyzers(meta dataset.Meta) *analyzers {
	countFrom := simtime.Day(meta.FromDay + 1)
	ref := simtime.Day(meta.ToDay)
	a := &analyzers{set: core.NewAnalyzerSet()}
	a.uc = register(a, "usercentric",
		func() *core.UserCentric { return core.NewUserCentricFor(false) }, (*core.UserCentric).Merge, nil)
	ic := func(fam netaddr.Family, length int) func() *core.IPCentric {
		return func() *core.IPCentric { return core.NewIPCentric(fam, length) }
	}
	a.ic4 = register(a, "ipcentric4", ic(netaddr.IPv4, 32), (*core.IPCentric).Merge, nil)
	a.ic128 = register(a, "ipcentric128", ic(netaddr.IPv6, 128), (*core.IPCentric).Merge, nil)
	a.ic64 = register(a, "ipcentric64", ic(netaddr.IPv6, 64), (*core.IPCentric).Merge, nil)
	a.churn = register(a, "churn",
		func() *core.ChurnAttribution { return core.NewChurnAttribution(countFrom) }, (*core.ChurnAttribution).Merge, nil)
	a.life = register(a, "lifespans",
		func() *core.Lifespans { return core.NewLifespans(ref, 64, 128, 32) }, (*core.Lifespans).Merge, nil)
	a.prev = register(a, "prevalence", core.NewPrevalence, (*core.Prevalence).Merge,
		func(o telemetry.Observation) bool { return !o.Abusive })
	return a
}

// register adds one commutative analyzer to a and returns its primary.
func register[T core.Observer](a *analyzers, name string, mk func() T, merge func(into, from T), filter func(telemetry.Observation) bool) T {
	i := len(a.names)
	primary := mk()
	a.names = append(a.names, name)
	a.filters = append(a.filters, filter)
	a.primary = append(a.primary, primary)
	a.made = append(a.made, nil)
	core.AddCommutativeAnalyzerFiltered(a.set, primary, func() T {
		r := mk()
		a.made[i] = r
		return r
	}, merge, filter)
	return primary
}

// newReplica returns a fresh replica of the set and its analyzers in
// registration order. Like AnalyzerSet.NewReplica, call it from one
// goroutine at a time.
func (a *analyzers) newReplica() (*core.Replica, []core.Observer) {
	r := a.set.NewReplica()
	return r, append([]core.Observer(nil), a.made...)
}

// digest renders the analyzers' query outputs as canonical text: two
// runs over the same records produce the same text exactly.
func (a *analyzers) digest() string {
	var b strings.Builder
	line := func(name string, v ...any) {
		fmt.Fprint(&b, name)
		for _, x := range v {
			fmt.Fprintf(&b, " %v", x)
		}
		b.WriteByte('\n')
	}
	hist := func(name string, h *stats.IntHist) { line(name, *h) }

	line("usercentric.users", a.uc.Users())
	hist("usercentric.addrs.v4", a.uc.AddrsPerUser(netaddr.IPv4))
	hist("usercentric.addrs.v6", a.uc.AddrsPerUser(netaddr.IPv6))
	hist("usercentric.prefixes64", a.uc.PrefixesPerUser(64))
	line("usercentric.spans", a.uc.PrefixSpans([]int{32, 48, 56, 64, 128}))
	line("usercentric.patterns", a.uc.AddrPatterns())
	line("usercentric.top", a.uc.TopUsersByAddrs(netaddr.IPv6, 10))
	for _, ic := range []struct {
		name string
		a    *core.IPCentric
	}{{"ipcentric4", a.ic4}, {"ipcentric128", a.ic128}, {"ipcentric64", a.ic64}} {
		line(ic.name+".prefixes", ic.a.Prefixes())
		hist(ic.name+".users", ic.a.UsersPerPrefix())
		hist(ic.name+".benign", ic.a.BenignPerPrefix())
		hist(ic.name+".abusive", ic.a.AbusivePerAbusivePrefix())
		hist(ic.name+".benign_in_abusive", ic.a.BenignPerAbusivePrefix())
	}
	line("churn", a.churn.Breakdown())
	line("lifespans.pairs", a.life.Pairs())
	for _, fl := range []struct {
		fam    netaddr.Family
		length int
	}{{netaddr.IPv6, 64}, {netaddr.IPv6, 128}, {netaddr.IPv4, 32}} {
		name := fmt.Sprintf("lifespans.%v/%d", fl.fam, fl.length)
		hist(name+".age", a.life.AgeHist(fl.fam, fl.length))
		hist(name+".user_median_age", a.life.MedianAgePerUser(fl.fam, fl.length))
	}
	line("lifespans.fresh.v6", a.life.FreshShares(netaddr.IPv6))
	line("lifespans.fresh.v4", a.life.FreshShares(netaddr.IPv4))
	line("prevalence.daily", a.prev.Daily())
	line("prevalence.asns", a.prev.TopASNs(1, 0, nil))
	line("prevalence.countries", a.prev.TopCountries(1, 0))
	zero, underTen, total := a.prev.ASNShareBands(1)
	line("prevalence.bands", zero, underTen, total)
	return b.String()
}

// firstDiff names the first line where got departs from want, for the
// error a failed correctness check reports.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range w {
		if i >= len(g) || g[i] != w[i] {
			name, _, _ := strings.Cut(w[i], " ")
			return name
		}
	}
	return "trailing output"
}
