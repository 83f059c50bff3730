package population

import (
	"math"
	"testing"

	"userv6/internal/netmodel"
)

func testPop(t *testing.T, users int, seed uint64) *Population {
	t.Helper()
	world := netmodel.BuildWorld(netmodel.WorldConfig{Seed: seed, Scale: float64(users) / 200000})
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Users = users
	return Synthesize(world, cfg)
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := testPop(t, 2000, 5)
	b := testPop(t, 2000, 5)
	if len(a.Users) != len(b.Users) {
		t.Fatal("sizes differ")
	}
	for i := range a.Users {
		ua, ub := &a.Users[i], &b.Users[i]
		if ua.Country != ub.Country || ua.Devices != ub.Devices ||
			ua.StaticIID != ub.StaticIID || len(ua.Contexts) != len(ub.Contexts) {
			t.Fatalf("user %d differs", i)
		}
		for j := range ua.Contexts {
			ca, cb := ua.Contexts[j], ub.Contexts[j]
			if ca.Kind != cb.Kind || ca.Sub != cb.Sub || ca.Net.ID != cb.Net.ID {
				t.Fatalf("user %d context %d differs", i, j)
			}
		}
	}
}

func TestEveryUserWellFormed(t *testing.T) {
	p := testPop(t, 5000, 1)
	for i := range p.Users {
		u := &p.Users[i]
		if u.ID != uint64(i) {
			t.Fatalf("user %d has ID %d", i, u.ID)
		}
		if u.Country == "" {
			t.Fatal("missing country")
		}
		if u.Devices < 1 || u.Devices > 5 {
			t.Fatalf("devices = %d", u.Devices)
		}
		if u.Activity <= 0 {
			t.Fatalf("activity = %v", u.Activity)
		}
		if len(u.Contexts) == 0 {
			t.Fatal("user with no contexts")
		}
		sum := 0.0
		for _, c := range u.Contexts {
			if c.Net == nil {
				t.Fatal("context without network")
			}
			if c.Weight < 0 {
				t.Fatalf("negative weight %v", c.Weight)
			}
			sum += c.Weight
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("user %d weights sum to %v", i, sum)
		}
		if u.MACRandomizing && !u.StaticIID {
			t.Fatal("MACRandomizing without StaticIID")
		}
	}
}

func TestCountryDistributionFollowsWeights(t *testing.T) {
	p := testPop(t, 30000, 2)
	counts := make(map[string]int)
	for i := range p.Users {
		counts[p.Users[i].Country]++
	}
	total := 0.0
	for _, c := range netmodel.Countries() {
		total += c.Weight
	}
	for _, c := range netmodel.Countries() {
		want := c.Weight / total
		got := float64(counts[c.Code]) / float64(len(p.Users))
		if math.Abs(got-want) > 0.02+want*0.25 {
			t.Errorf("%s share = %.4f, want ~%.4f", c.Code, got, want)
		}
	}
}

func TestHouseholdsShared(t *testing.T) {
	p := testPop(t, 20000, 3)
	// Count users per (network, household sub) for home contexts.
	type hh struct {
		net uint32
		sub uint64
	}
	sizes := make(map[hh]int)
	for i := range p.Users {
		if c := p.Users[i].Context(Home); c != nil {
			sizes[hh{c.Net.ID, c.Sub}]++
		}
	}
	if len(sizes) == 0 {
		t.Fatal("no households")
	}
	multi := 0
	maxSize := 0
	for _, n := range sizes {
		if n > 1 {
			multi++
		}
		if n > maxSize {
			maxSize = n
		}
	}
	if multi == 0 {
		t.Fatal("no multi-member households")
	}
	if maxSize > 12 {
		t.Fatalf("implausible household of %d", maxSize)
	}
}

func TestStaticIIDShare(t *testing.T) {
	p := testPop(t, 40000, 4)
	static, randomizing := 0, 0
	for i := range p.Users {
		if p.Users[i].StaticIID {
			static++
			if p.Users[i].MACRandomizing {
				randomizing++
			}
		}
	}
	share := float64(static) / float64(len(p.Users))
	if math.Abs(share-p.Config().StaticIIDShare) > 0.005 {
		t.Fatalf("static share = %v, want ~%v", share, p.Config().StaticIIDShare)
	}
	if static > 0 {
		rshare := float64(randomizing) / float64(static)
		if math.Abs(rshare-p.Config().MACRandomizingShare) > 0.06 {
			t.Fatalf("randomizing share = %v", rshare)
		}
	}
}

func TestDeviceSharingWithinHouseholds(t *testing.T) {
	p := testPop(t, 30000, 5)
	// Some household members must share a DeviceBase.
	type hh struct {
		net uint32
		sub uint64
	}
	bases := make(map[hh]map[uint64]int)
	for i := range p.Users {
		u := &p.Users[i]
		c := u.Context(Home)
		if c == nil {
			continue
		}
		k := hh{c.Net.ID, c.Sub}
		if bases[k] == nil {
			bases[k] = make(map[uint64]int)
		}
		bases[k][u.DeviceBase]++
	}
	shared := 0
	for _, m := range bases {
		for _, n := range m {
			if n > 1 {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no shared family devices synthesized")
	}
}

func TestWorkOnlyConcentratesWeight(t *testing.T) {
	p := testPop(t, 30000, 6)
	found := false
	for i := range p.Users {
		u := &p.Users[i]
		if !u.WorkOnly {
			continue
		}
		w := u.Context(Work)
		if w == nil {
			t.Fatal("work-only user without work context")
		}
		if w.Weight < 0.85 {
			t.Fatalf("work-only user work weight = %v", w.Weight)
		}
		found = true
	}
	if !found {
		t.Fatal("no work-only users synthesized")
	}
}

func TestContextKindString(t *testing.T) {
	if Home.String() != "home" || MobileCtx.String() != "mobile" ||
		Work.String() != "work" || VPN.String() != "vpn" {
		t.Fatal("context labels wrong")
	}
	if ContextKind(99).String() != "context(99)" {
		t.Fatal("unknown label wrong")
	}
}

func TestZeroUsersClamped(t *testing.T) {
	world := netmodel.BuildWorld(netmodel.WorldConfig{Seed: 1, Scale: 0.01})
	cfg := DefaultConfig()
	cfg.Users = 0
	p := Synthesize(world, cfg)
	if len(p.Users) != 1 {
		t.Fatalf("users = %d, want clamp to 1", len(p.Users))
	}
}
