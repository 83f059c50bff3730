package core

import (
	"fmt"
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/rng"
	"userv6/internal/telemetry"
)

// synthStream feeds both analyzers an identical synthetic stream: a few
// heavy addresses with large user populations over a background of
// single-user addresses.
func synthStream(emit func(telemetry.Observation)) {
	src := rng.New(777)
	// 5 heavy addresses with 2000, 1000, 500, 400, 300 users.
	heavyUsers := []int{2000, 1000, 500, 400, 300}
	uid := uint64(0)
	for i, n := range heavyUsers {
		addr := netaddr.MustParseAddr("2600:380::").WithIID(uint64(i + 1))
		for u := 0; u < n; u++ {
			uid++
			o := telemetry.Observation{UserID: uid, Addr: addr, Requests: 1}
			emit(o)
			// Occasional repeat sightings must not inflate counts.
			if src.Bool(0.3) {
				emit(o)
			}
		}
	}
	// 30k background single-user addresses spread across random /64s.
	for i := 0; i < 30000; i++ {
		uid++
		addr := netaddr.AddrFrom6(0x2400_0000_0000_0000|src.Uint64()&0x0000_ffff_ffff_ffff, src.Uint64())
		emit(telemetry.Observation{UserID: uid, Addr: addr, Requests: 1})
	}
}

func TestSketchedMatchesExactOnHeavyHitters(t *testing.T) {
	exact := NewIPCentric(netaddr.IPv6, 128)
	sk := NewSketchedIPCentric(netaddr.IPv6, 128, 512)
	synthStream(func(o telemetry.Observation) {
		exact.Observe(o)
		sk.Observe(o)
	})

	topErr, recall := CompareExact(sk, exact, 5)
	if recall < 0.99 {
		t.Fatalf("heavy-hitter recall = %v", recall)
	}
	if topErr > 0.10 {
		t.Fatalf("top-prefix user estimate error = %v", topErr)
	}

	// The heaviest sketched prefix matches the exact heaviest.
	exTop := exact.TopPrefixes(1)[0]
	skTop := sk.Top(1)[0]
	if skTop.Prefix != exTop.Prefix {
		t.Fatalf("heaviest prefix: sketch %v vs exact %v", skTop.Prefix, exTop.Prefix)
	}
	if skTop.Users < float64(exTop.Users)*0.9 || skTop.Users > float64(exTop.Users)*1.1 {
		t.Fatalf("heaviest estimate %v vs exact %d", skTop.Users, exTop.Users)
	}
}

func TestSketchedPrefixCardinality(t *testing.T) {
	sk := NewSketchedIPCentric(netaddr.IPv6, 128, 64)
	exactCount := 0
	synthStream(func(o telemetry.Observation) { sk.Observe(o) })
	exactCount = 5 + 30000 // heavy + background (collisions negligible)
	est := sk.Prefixes()
	if est < float64(exactCount)*0.9 || est > float64(exactCount)*1.1 {
		t.Fatalf("prefix cardinality estimate %v, want ~%d", est, exactCount)
	}
}

func TestSketchedAtPrefixGranularity(t *testing.T) {
	// At /64, the heavy addresses (same /64) merge into one very heavy
	// prefix.
	sk := NewSketchedIPCentric(netaddr.IPv6, 64, 64)
	exact := NewIPCentric(netaddr.IPv6, 64)
	synthStream(func(o telemetry.Observation) {
		sk.Observe(o)
		exact.Observe(o)
	})
	exTop := exact.TopPrefixes(1)[0]
	skTop := sk.Top(1)[0]
	if skTop.Prefix != exTop.Prefix {
		t.Fatalf("/64 heaviest: sketch %v vs exact %v", skTop.Prefix, exTop.Prefix)
	}
	if exTop.Users != 4200 {
		t.Fatalf("exact /64 population = %d, want 4200", exTop.Users)
	}
	if skTop.Users < 3800 || skTop.Users > 4600 {
		t.Fatalf("sketched /64 population = %v", skTop.Users)
	}
}

func TestSketchedIgnoresWrongFamily(t *testing.T) {
	sk := NewSketchedIPCentric(netaddr.IPv4, 32, 16)
	sk.Observe(telemetry.Observation{UserID: 1, Addr: netaddr.MustParseAddr("2001:db8::1")})
	if sk.Prefixes() != 0 {
		t.Fatal("v6 observation counted by v4 sketch")
	}
}

func BenchmarkSketchedObserve(b *testing.B) {
	sk := NewSketchedIPCentric(netaddr.IPv6, 64, 1024)
	src := rng.New(1)
	obs := make([]telemetry.Observation, 8192)
	for i := range obs {
		obs[i] = telemetry.Observation{
			UserID: uint64(src.Intn(100000)),
			Addr:   netaddr.AddrFrom6(0x2400<<48|uint64(src.Intn(5000)), src.Uint64()),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Observe(obs[i%len(obs)])
	}
}

func ExampleSketchedIPCentric() {
	sk := NewSketchedIPCentric(netaddr.IPv6, 128, 64)
	addr := netaddr.MustParseAddr("2600:380::1")
	for uid := uint64(1); uid <= 1000; uid++ {
		sk.Observe(telemetry.Observation{UserID: uid, Addr: addr})
	}
	top := sk.Top(1)
	fmt.Println(top[0].Prefix, top[0].Users > 900 && top[0].Users < 1100)
	// Output: 2600:380::1/128 true
}
