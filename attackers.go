package userv6

// The paper's §8 closes by naming attacker classes it did not study:
// logged-out scraping and account hijacking. This file wires the models
// of both into the public API, with evaluation experiments for each.

import (
	"fmt"
	"slices"

	"userv6/internal/abuse"
	"userv6/internal/core"
	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// Scrapers returns a scraper-fleet generator for this sim's world,
// scaled to the population.
func (s *Sim) Scrapers() *abuse.ScraperGen {
	cfg := abuse.DefaultScraperConfig()
	cfg.Seed = s.Scenario.Seed
	cfg.Bots = int(float64(cfg.Bots) * s.Scenario.Scale())
	if cfg.Bots < 12 {
		cfg.Bots = 12
	}
	return abuse.NewScraperGen(s.World, cfg)
}

// Hijacks returns an account-hijacking generator over this sim's
// population.
func (s *Sim) Hijacks() *abuse.HijackGen {
	cfg := abuse.DefaultHijackConfig()
	cfg.Seed = s.Scenario.Seed
	return abuse.NewHijackGen(s.World, s.Pop, cfg)
}

// ScraperDefenseResult evaluates request-rate limits against scrapers at
// one granularity and budget.
type ScraperDefenseResult struct {
	Name              string
	Length            int
	CapPerDay         uint64
	BenignLossShare   float64
	ScraperBlockShare float64
}

// ScraperDefense registers logged-out request-rate limiting over one
// analysis day with benign traffic plus the scraper fleet, at /128 and
// /64 for each budget. Scrapers hop IIDs inside their /64, so
// per-address caps leak most of their volume; the /64 limiter (whose
// budget is 10x the per-address budget, since whole households and
// sites share a /64) catches what hopping hides. One RequestLoad per
// granularity serves every budget.
func (p *Paper) ScraperDefense(caps []uint64) func() []ScraperDefenseResult {
	day := simtime.AnalysisWeekStart
	grans := []struct {
		name   string
		length int
		mult   uint64
	}{{"/128", 128, 1}, {"/64", 64, 10}}

	loads := make([]*core.RequestLoad, len(grans))
	for i, g := range grans {
		// The §7.2 carve-out: heavily populated gateway addresses are
		// predictable from their structured IIDs, so the rate limiter
		// exempts them (they get a dedicated policy) rather than
		// throttling hundreds of legitimate users behind one address.
		loads[i] = register(p, reg{fmt.Sprintf("RequestLoad IPv6/%d, structured IIDs exempt", g.length), day, day, benignPop | scraperPop},
			func() *core.RequestLoad { return core.NewRequestLoad(netaddr.IPv6, g.length) },
			func(o telemetry.Observation) bool { return !netaddr.IsStructuredIID(o.Addr) })
	}
	return func() []ScraperDefenseResult {
		var results []ScraperDefenseResult
		for i, g := range grans {
			for _, c := range caps {
				budget := c * g.mult
				t := loads[i].Limit(budget)
				results = append(results, ScraperDefenseResult{
					Name: g.name, Length: g.length, CapPerDay: budget,
					BenignLossShare: t.BenignLossShare(), ScraperBlockShare: t.AbusiveBlockShare(),
				})
			}
		}
		return results
	}
}

// HijackDetectionResult evaluates the IP-novelty hijack detector.
type HijackDetectionResult struct {
	Victims, Detected  int
	Recall             float64
	FalseAlarms, Users int
	FalseAlarmShare    float64
}

// DetectHijacks registers a simple IP-novelty detector over the full
// study window, benign users and hijacked accounts alike: flag an
// account when it appears on a hosting/proxy-network address after
// having been seen on access networks — the paper's suggested use of
// user-level IP features for compromise detection.
func (p *Paper) DetectHijacks() func() HijackDetectionResult {
	s, hosting := p.Sim, make(map[netmodel.ASN]bool)
	for _, n := range slices.Concat(s.World.Hosting, s.World.Proxies) {
		hosting[n.ASN] = true
	}
	det := register(p, reg{"IPNovelty", 0, simtime.StudyDays - 1, benignPop | hijackPop},
		func() *core.IPNovelty { return core.NewIPNovelty(hosting) }, nil)
	return func() HijackDetectionResult {
		hijacks := s.Hijacks()
		r := HijackDetectionResult{Victims: len(hijacks.Victims()), Users: det.Users()}
		for _, uid := range det.Flagged() {
			if _, victim := hijacks.VictimOf(uid); victim {
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
}
