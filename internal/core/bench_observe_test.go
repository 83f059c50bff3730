package core

import (
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/rng"
	"userv6/internal/telemetry"
)

// benchObservations builds a reusable mixed stream: many users across a
// few thousand /64s, mostly IPv6 with an IPv4 minority, the shape the
// analyzers see from real generation.
func benchObservations(n int) []telemetry.Observation {
	src := rng.New(3)
	obs := make([]telemetry.Observation, n)
	for i := range obs {
		o := telemetry.Observation{
			Day:      0,
			UserID:   uint64(src.Intn(50_000)),
			ASN:      netmodel.ASN(100 + src.Intn(64)),
			Requests: uint32(1 + src.Intn(20)),
		}
		if src.Intn(5) == 0 {
			o.Addr = netaddr.AddrFrom4(0x0a00_0000 | uint32(src.Intn(1<<16)))
		} else {
			o.Addr = netaddr.AddrFrom6(0x2001_0db8_0000_0000|uint64(src.Intn(4096)), src.Uint64())
		}
		obs[i] = o
	}
	return obs
}

// BenchmarkUserCentricObserve measures the per-record cost of the
// user-centric address accounting — the dominant analyzer in the
// fused path's per-worker loop.
func BenchmarkUserCentricObserve(b *testing.B) {
	uc := NewUserCentric()
	obs := benchObservations(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uc.Observe(obs[i%len(obs)])
	}
}

// BenchmarkIPCentricObserve measures per-record prefix attribution at
// /64, the trie-backed half of the analysis hot path.
func BenchmarkIPCentricObserve(b *testing.B) {
	ic := NewIPCentric(netaddr.IPv6, 64)
	obs := benchObservations(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ic.Observe(obs[i%len(obs)])
	}
}
