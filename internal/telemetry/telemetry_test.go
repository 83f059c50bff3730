package telemetry

import (
	"testing"

	"userv6/internal/netmodel"
	"userv6/internal/population"
	"userv6/internal/simtime"
)

func testGen(t testing.TB, users int) *Generator {
	t.Helper()
	world := netmodel.BuildWorld(netmodel.WorldConfig{Seed: 7, Scale: float64(users) / 200000})
	cfg := population.DefaultConfig()
	cfg.Seed = 7
	cfg.Users = users
	pop := population.Synthesize(world, cfg)
	return NewGenerator(pop, 7)
}

func TestGeneratorDeterministic(t *testing.T) {
	g1 := testGen(t, 500)
	g2 := testGen(t, 500)
	var a, b []Observation
	g1.Generate(0, 2, func(o Observation) { a = append(a, o) })
	g2.Generate(0, 2, func(o Observation) { b = append(b, o) })
	if len(a) == 0 {
		t.Fatal("no observations")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("observation %d differs", i)
		}
	}
}

func TestGeneratorObservationsWellFormed(t *testing.T) {
	g := testGen(t, 800)
	day := simtime.Day(10)
	n := 0
	g.GenerateDay(day, func(o Observation) {
		n++
		if o.Day != day {
			t.Fatalf("day = %v", o.Day)
		}
		if !o.Addr.IsValid() {
			t.Fatal("invalid address emitted")
		}
		if o.Requests == 0 {
			t.Fatal("zero-request observation")
		}
		if o.Abusive {
			t.Fatal("benign generator emitted abusive flag")
		}
		if o.ASN == 0 {
			t.Fatal("missing ASN")
		}
		if o.CountryCode() == "\x00\x00" {
			t.Fatal("missing country")
		}
		if int(o.UserID) >= len(g.Pop.Users) {
			t.Fatal("unknown user id")
		}
	})
	if n == 0 {
		t.Fatal("no observations for a day")
	}
}

func TestGeneratorAddressesMatchRouting(t *testing.T) {
	g := testGen(t, 500)
	world := g.Pop.World
	g.GenerateDay(5, func(o Observation) {
		if got := world.ASNOf(o.Addr); got != o.ASN {
			t.Fatalf("obs ASN %d but routing says %d for %s", o.ASN, got, o.Addr)
		}
	})
}

func TestUserDayIndependentOfOtherDays(t *testing.T) {
	// Generating a single (user, day) in isolation must match the same
	// pair inside a range generation — the property that lets analyses
	// re-generate windows cheaply.
	g := testGen(t, 300)
	u := &g.Pop.Users[42]
	var solo []Observation
	g.UserDay(u, 9, func(o Observation) { solo = append(solo, o) })
	var inRange []Observation
	g.Generate(8, 10, func(o Observation) {
		if o.UserID == u.ID && o.Day == 9 {
			inRange = append(inRange, o)
		}
	})
	if len(solo) != len(inRange) {
		t.Fatalf("solo %d vs in-range %d", len(solo), len(inRange))
	}
	for i := range solo {
		if solo[i] != inRange[i] {
			t.Fatalf("obs %d differs", i)
		}
	}
}

func TestWeekendShiftsWorkActivity(t *testing.T) {
	g := testGen(t, 4000)
	// Day 5 (Tue Jan 28) vs day 9 (Sat Feb 1): enterprise observations
	// must drop sharply on the weekend.
	entASNs := make(map[netmodel.ASN]bool)
	for _, c := range g.Pop.World.Countries {
		entASNs[c.EntV6.ASN] = true
		entASNs[c.EntV4.ASN] = true
	}
	count := func(day simtime.Day) (ent, total int) {
		g.GenerateDay(day, func(o Observation) {
			total++
			if entASNs[o.ASN] {
				ent++
			}
		})
		return
	}
	entWeekday, totalWeekday := count(5)
	entWeekend, totalWeekend := count(9)
	if entWeekday == 0 {
		t.Fatal("no enterprise traffic on a weekday")
	}
	fWeekday := float64(entWeekday) / float64(totalWeekday)
	fWeekend := float64(entWeekend) / float64(totalWeekend)
	if fWeekend > fWeekday*0.5 {
		t.Fatalf("enterprise share weekday %.4f -> weekend %.4f; want a sharp drop", fWeekday, fWeekend)
	}
}

func TestLockdownShiftsWorkHome(t *testing.T) {
	g := testGen(t, 4000)
	entASNs := make(map[netmodel.ASN]bool)
	for _, c := range g.Pop.World.Countries {
		entASNs[c.EntV6.ASN] = true
		entASNs[c.EntV4.ASN] = true
	}
	share := func(day simtime.Day) float64 {
		var ent, total int
		g.GenerateDay(day, func(o Observation) {
			total++
			if entASNs[o.ASN] {
				ent++
			}
		})
		return float64(ent) / float64(total)
	}
	// Tue Jan 28 (pre) vs Tue Apr 14 (locked).
	pre, locked := share(5), share(82)
	if locked > pre*0.4 {
		t.Fatalf("enterprise share pre %.4f -> lockdown %.4f; want a collapse", pre, locked)
	}
}

func TestDualStackSplitsRequests(t *testing.T) {
	g := testGen(t, 2000)
	var v4Reqs, v6Reqs uint64
	g.GenerateDay(10, func(o Observation) {
		if o.Addr.Is6() {
			v6Reqs += uint64(o.Requests)
		} else {
			v4Reqs += uint64(o.Requests)
		}
	})
	if v6Reqs == 0 || v4Reqs == 0 {
		t.Fatalf("one-sided traffic: v4=%d v6=%d", v4Reqs, v6Reqs)
	}
	share := float64(v6Reqs) / float64(v4Reqs+v6Reqs)
	// Calibrated to the paper's 22-25% band; allow slack at small scale.
	if share < 0.12 || share > 0.40 {
		t.Fatalf("v6 request share = %.3f, outside plausible band", share)
	}
}

func BenchmarkGenerateDay(b *testing.B) {
	world := netmodel.BuildWorld(netmodel.WorldConfig{Seed: 7, Scale: 0.01})
	cfg := population.DefaultConfig()
	cfg.Seed = 7
	cfg.Users = 2000
	pop := population.Synthesize(world, cfg)
	g := NewGenerator(pop, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		g.GenerateDay(simtime.Day(i%28), func(Observation) { n++ })
	}
}

// Generation is the set-up cost of every export and analysis run, paid
// once per (user, day): UserDay with an emit that keeps nothing must
// allocate nothing, on weekdays, weekends and lockdown days alike.
func TestUserDayAllocatesNothing(t *testing.T) {
	g := testGen(t, 300)
	n := 0
	emit := func(Observation) { n++ }
	for _, day := range []simtime.Day{10, 81, 84, 120} {
		allocs := testing.AllocsPerRun(5, func() {
			for i := range g.Pop.Users {
				g.UserDay(&g.Pop.Users[i], day, emit)
			}
		})
		if allocs != 0 {
			t.Fatalf("day %d: %.1f allocations per pass over %d users", day, allocs, len(g.Pop.Users))
		}
	}
	if n == 0 {
		t.Fatal("no observations generated")
	}
}
