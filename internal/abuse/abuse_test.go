package abuse

import (
	"math"
	"testing"
	"time"

	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

func testGen(t *testing.T) *Generator {
	t.Helper()
	world := netmodel.BuildWorld(netmodel.WorldConfig{Seed: 3, Scale: 0.05})
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.AccountsPerDay = 120
	return NewGenerator(world, cfg)
}

func TestAccountsDeterministic(t *testing.T) {
	g := testGen(t)
	for k := uint64(0); k < 500; k++ {
		a1, a2 := g.AccountAt(k), g.AccountAt(k)
		if a1 != a2 {
			t.Fatalf("account %d not deterministic", k)
		}
		if a1.ID != AccountIDBase+k {
			t.Fatalf("account %d ID = %d", k, a1.ID)
		}
		if a1.Life < 1 || a1.Life > g.Cfg.MaxLifeDays {
			t.Fatalf("account %d life = %d", k, a1.Life)
		}
		if a1.Campaign < 0 || a1.Campaign >= g.Cfg.Campaigns {
			t.Fatalf("account %d campaign = %d", k, a1.Campaign)
		}
	}
}

func TestLifespanSkew(t *testing.T) {
	g := testGen(t)
	oneDay, total := 0, 5000
	for k := uint64(0); k < uint64(total); k++ {
		if g.AccountAt(k).Life == 1 {
			oneDay++
		}
	}
	share := float64(oneDay) / float64(total)
	if math.Abs(share-g.Cfg.DetectFirstDay) > 0.03 {
		t.Fatalf("one-day share = %v, want ~%v", share, g.Cfg.DetectFirstDay)
	}
}

func TestActiveWindow(t *testing.T) {
	g := testGen(t)
	a := g.AccountAt(uint64(g.Cfg.AccountsPerDay) * 10) // born day 10
	if a.Birth != 10 {
		t.Fatalf("birth = %v", a.Birth)
	}
	if a.ActiveOn(9) {
		t.Fatal("active before birth")
	}
	if !a.ActiveOn(10) {
		t.Fatal("inactive on birth day")
	}
	if a.ActiveOn(10 + simtime.Day(a.Life)) {
		t.Fatal("active after death")
	}
}

// TestForEachActiveMatchesActiveOn: ForEachActive visits exactly the
// accounts active on a day, each once. On a negative day there are
// none, and the walk must end at once rather than wrap its index range;
// a deadline turns a walk that does not end into a failure.
func TestForEachActiveMatchesActiveOn(t *testing.T) {
	g := testGen(t)
	for _, day := range []simtime.Day{25, 0, -1, -3} {
		var visited []Account
		done := make(chan struct{})
		go func() {
			defer close(done)
			g.ForEachActive(day, func(a Account) { visited = append(visited, a) })
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("ForEachActive(%d) still running after 10s", day)
		}
		seen := make(map[uint64]bool)
		for _, a := range visited {
			if !a.ActiveOn(day) {
				t.Fatalf("day %d: ForEachActive yielded inactive account %d", day, a.Index)
			}
			if seen[a.Index] {
				t.Fatalf("day %d: account %d visited twice", day, a.Index)
			}
			seen[a.Index] = true
		}
		// Brute force over the feasible index range.
		want := 0
		for k := uint64(0); k < uint64(max(0, int(day)+1))*uint64(g.Cfg.AccountsPerDay); k++ {
			if g.AccountAt(k).ActiveOn(day) {
				want++
				if !seen[k] {
					t.Fatalf("day %d: active account %d missed", day, k)
				}
			}
		}
		if len(seen) != want {
			t.Fatalf("day %d: visited %d, want %d", day, len(seen), want)
		}
	}
}

func TestGenerateDayObservations(t *testing.T) {
	g := testGen(t)
	day := simtime.Day(30)
	accounts := make(map[uint64]bool)
	n := 0
	g.GenerateDay(day, func(o telemetry.Observation) {
		n++
		if !o.Abusive {
			t.Fatal("abusive generator emitted benign observation")
		}
		if o.Day != day {
			t.Fatalf("day = %v", o.Day)
		}
		if !o.Addr.IsValid() {
			t.Fatal("invalid address")
		}
		if o.UserID < AccountIDBase {
			t.Fatal("account ID below base")
		}
		if o.Requests == 0 {
			t.Fatal("zero requests")
		}
		accounts[o.UserID] = true
	})
	if n == 0 || len(accounts) == 0 {
		t.Fatal("no abusive telemetry")
	}
	// Most active accounts should emit at least one observation.
	active := 0
	g.ForEachActive(day, func(Account) { active++ })
	if len(accounts) < active*8/10 {
		t.Fatalf("only %d of %d active accounts emitted", len(accounts), active)
	}
}

func TestAddressesInsideRoutedBlocks(t *testing.T) {
	g := testGen(t)
	world := g.World
	g.GenerateDay(20, func(o telemetry.Observation) {
		if world.ASNOf(o.Addr) == 0 {
			t.Fatalf("abusive address %s outside all routed blocks", o.Addr)
		}
	})
}

func TestMostAccountsUseOneV6AddressPerDay(t *testing.T) {
	g := testGen(t)
	addrs := make(map[uint64]map[netaddr.Addr]struct{})
	g.GenerateDay(30, func(o telemetry.Observation) {
		if !o.Addr.Is6() {
			return
		}
		if addrs[o.UserID] == nil {
			addrs[o.UserID] = make(map[netaddr.Addr]struct{})
		}
		addrs[o.UserID][o.Addr] = struct{}{}
	})
	single := 0
	for _, set := range addrs {
		if len(set) == 1 {
			single++
		}
	}
	if len(addrs) == 0 {
		t.Fatal("no v6-active accounts")
	}
	if share := float64(single) / float64(len(addrs)); share < 0.9 {
		t.Fatalf("single-v6-address share = %v, want >= 0.9", share)
	}
}

func TestHostingSurvivorsKeepAddress(t *testing.T) {
	g := testGen(t)
	// Find a hosting account that survives at least 2 days.
	var target Account
	for k := uint64(0); k < 20000; k++ {
		a := g.AccountAt(k)
		if a.Exit == ExitHosting && a.Life >= 2 {
			target = a
			break
		}
	}
	if target.Life < 2 {
		t.Skip("no multi-day hosting account in range")
	}
	addrOn := func(d simtime.Day) netaddr.Addr {
		var v6 netaddr.Addr
		g.GenerateDay(d, func(o telemetry.Observation) {
			if o.UserID == target.ID && o.Addr.Is6() {
				v6 = o.Addr
			}
		})
		return v6
	}
	a1 := addrOn(target.Birth)
	a2 := addrOn(target.Birth + 1)
	if !a1.IsValid() || a1 != a2 {
		t.Fatalf("hosting survivor address changed: %s -> %s", a1, a2)
	}
}

func TestExitKindStrings(t *testing.T) {
	want := map[ExitKind]string{
		ExitHosting: "hosting", ExitMobile: "mobile", ExitGateway: "gateway",
		ExitProxy: "proxy", ExitCGN: "cgn",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestExitMixRoughlyMatchesWeights(t *testing.T) {
	g := testGen(t)
	counts := make(map[ExitKind]int)
	const n = 20000
	for k := uint64(0); k < n; k++ {
		counts[g.AccountAt(k).Exit]++
	}
	total := g.Cfg.HostingW + g.Cfg.MobileW + g.Cfg.GatewayW + g.Cfg.ProxyW + g.Cfg.CGNW
	for kind, w := range map[ExitKind]float64{
		ExitHosting: g.Cfg.HostingW, ExitMobile: g.Cfg.MobileW,
		ExitGateway: g.Cfg.GatewayW, ExitProxy: g.Cfg.ProxyW, ExitCGN: g.Cfg.CGNW,
	} {
		want := w / total
		got := float64(counts[kind]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%v share = %v, want ~%v", kind, got, want)
		}
	}
}
