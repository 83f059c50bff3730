package userv6

import (
	"slices"
	"testing"

	"userv6/internal/netmodel"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

func TestScraperDefenseShapes(t *testing.T) {
	sim := testSim(t)
	results := runFigure(sim, func(p *Paper) func() []ScraperDefenseResult { return p.ScraperDefense([]uint64{200, 1000}) })
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	get := func(name string, baseCap uint64) ScraperDefenseResult {
		for _, r := range results {
			if r.Name == name && (r.CapPerDay == baseCap || r.CapPerDay == baseCap*10) {
				return r
			}
		}
		t.Fatalf("missing %s cap %d", name, baseCap)
		return ScraperDefenseResult{}
	}
	for _, r := range results {
		if r.BenignLossShare < 0 || r.BenignLossShare > 1 ||
			r.ScraperBlockShare < 0 || r.ScraperBlockShare > 1 {
			t.Fatalf("shares out of range: %+v", r)
		}
		// Even tight IPv6 budgets cost only a sliver of benign traffic
		// (the cost is heavy individual users, not shared addresses).
		if r.BenignLossShare > 0.12 {
			t.Fatalf("benign loss %v at %+v", r.BenignLossShare, r)
		}
	}
	// At the tight budget, the /64 limiter separates scrapers from
	// benign users decisively; the /128 limiter cannot (IID hopping) —
	// which is the point of the experiment.
	if r := get("/64", 200); r.ScraperBlockShare < r.BenignLossShare*3 {
		t.Fatalf("tight /64 limiter fails to separate: %+v", r)
	}
	if get("/64", 200).ScraperBlockShare < 0.5 {
		t.Fatalf("tight /64 cap too weak: %+v", get("/64", 200))
	}
	// At a loose per-ADDRESS budget, IID-hopping scrapers escape most
	// limiting — the finding that pushes limits to /64 granularity.
	if get("/128", 1000).ScraperBlockShare > get("/64", 1000).ScraperBlockShare {
		t.Fatalf("loose /128 cap beat the /64 cap: %+v", results)
	}
	// A generous budget is nearly free for benign users.
	if get("/64", 1000).BenignLossShare > 0.02 {
		t.Fatalf("loose cap benign loss = %v", get("/64", 1000).BenignLossShare)
	}
	// /64 limits catch at least as much scraper volume as /128 limits
	// at the same budget (IID hopping defeats per-address caps).
	if get("/64", 200).ScraperBlockShare < get("/128", 200).ScraperBlockShare {
		t.Fatalf("/64 cap blocks less than /128: %+v", results)
	}
	// The scraper fleet loses most of its volume to a tight /64 cap.
	if get("/64", 200).ScraperBlockShare < 0.5 {
		t.Fatalf("scrapers barely limited: %+v", get("/64", 200))
	}
	// A looser budget blocks no more than a tighter one.
	if get("/64", 1000).ScraperBlockShare > get("/64", 200).ScraperBlockShare+1e-9 {
		t.Fatal("looser cap blocked more")
	}
}

func TestDetectHijacksShapes(t *testing.T) {
	sim := testSim(t)
	r := runFigure(sim, (*Paper).DetectHijacks)
	if r.Victims == 0 {
		t.Fatal("no victims synthesized")
	}
	// The novelty detector catches the bulk of compromises...
	if r.Recall < 0.6 {
		t.Fatalf("hijack recall = %v (%d of %d)", r.Recall, r.Detected, r.Victims)
	}
	// ...at a false-alarm rate bounded by the benign VPN/hosting user
	// share (those users legitimately touch proxy space).
	if r.FalseAlarmShare > 0.08 {
		t.Fatalf("false alarms = %v of users", r.FalseAlarmShare)
	}
	if r.Detected > r.Victims {
		t.Fatal("detected more victims than exist")
	}
}

// TestUserDaysPutAccessBeforeHosting: in every generated user-day, no
// access sighting follows a hosting or proxy sighting. Paper's
// DetectHijacks rests on it: core.IPNovelty folds each user's first
// access day and last hosting day, which flags what the streaming
// detector flags only when a user-day delivers its access sightings
// first (a day's hijack sightings come after all its benign ones).
// The population appends a user's VPN context after the access ones,
// and the generator emits contexts in order. Some user-days must mix
// both kinds, so reordering the contexts fails the test.
func TestUserDaysPutAccessBeforeHosting(t *testing.T) {
	sim := NewSim(DefaultScenario(1_500))
	hosting := make(map[netmodel.ASN]bool)
	for _, n := range slices.Concat(sim.World.Hosting, sim.World.Proxies) {
		hosting[n.ASN] = true
	}
	mixed := 0
	for i := range sim.Pop.Users {
		u := &sim.Pop.Users[i]
		for d := simtime.Day(0); d < simtime.StudyDays; d++ {
			var access, onHosting bool
			sim.Benign.UserDay(u, d, func(o telemetry.Observation) {
				if hosting[o.ASN] {
					onHosting = true
					return
				}
				if onHosting {
					t.Fatalf("user %d, day %d: access sighting on ASN %d after a hosting sighting", u.ID, d, o.ASN)
				}
				access = true
			})
			if access && onHosting {
				mixed++
			}
		}
	}
	if mixed == 0 {
		t.Fatal("no user-day mixes access and hosting sightings, so the order is not checked")
	}
	t.Logf("%d user-days mix access and hosting sightings", mixed)
}
