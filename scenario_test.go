package userv6

import (
	"math"
	"testing"
)

func TestDefaultScenario(t *testing.T) {
	s := DefaultScenario(0)
	if s.Users != ReferenceUsers {
		t.Fatalf("users = %d", s.Users)
	}
	if s.Scale() != 1 {
		t.Fatalf("scale = %v", s.Scale())
	}
	s = DefaultScenario(20_000)
	if math.Abs(s.Scale()-0.1) > 1e-12 {
		t.Fatalf("scale = %v", s.Scale())
	}
	if s.Population.StaticIIDShare <= 0 || s.Abuse.AccountsPerDay <= 0 {
		t.Fatal("default sub-configs not populated")
	}
}

func TestWithSeed(t *testing.T) {
	s := DefaultScenario(100).WithSeed(99)
	if s.Seed != 99 {
		t.Fatalf("seed = %d", s.Seed)
	}
	// The original is unchanged (value semantics).
	base := DefaultScenario(100)
	_ = base.WithSeed(7)
	if base.Seed != 1 {
		t.Fatal("WithSeed mutated the receiver")
	}
}

func TestNewSimScalesAbuse(t *testing.T) {
	small := NewSim(DefaultScenario(2_000))
	big := NewSim(DefaultScenario(20_000))
	if small.Abusive.Cfg.AccountsPerDay >= big.Abusive.Cfg.AccountsPerDay {
		t.Fatalf("abuse volume not scaled: %d vs %d",
			small.Abusive.Cfg.AccountsPerDay, big.Abusive.Cfg.AccountsPerDay)
	}
	if small.Abusive.Cfg.AccountsPerDay < 8 {
		t.Fatal("abuse floor not applied")
	}
}

func TestNewSimPopulationSize(t *testing.T) {
	sim := NewSim(DefaultScenario(1234))
	if len(sim.Pop.Users) != 1234 {
		t.Fatalf("population = %d", len(sim.Pop.Users))
	}
	if sim.World.Scale() <= 0 {
		t.Fatal("world scale missing")
	}
}

func TestAnalysisWeek(t *testing.T) {
	from, to := AnalysisWeek()
	if to-from != 6 {
		t.Fatalf("analysis week spans %d days", to-from+1)
	}
}

func TestASNOfExposed(t *testing.T) {
	sim := NewSim(DefaultScenario(500))
	n := sim.World.CountryByCode("US").ResV6
	addr := n.V4AddrAt(1, 0, 0)
	if sim.ASNOf(addr) != n.ASN {
		t.Fatal("ASNOf mismatch")
	}
}
