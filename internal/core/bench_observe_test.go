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

// benchObserveFixture feeds a fresh analyzer the whole fixture per op,
// so every op does the same inserts, and reports ns/record. The
// fixture draws users at random from 50k, so nearly every record
// belongs to a user other than the previous record's.
func benchObserveFixture(b *testing.B, fresh func() Observer) {
	obs := benchObservations(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := fresh()
		for _, o := range obs {
			a.Observe(o)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(obs)), "ns/record")
}

// BenchmarkUserCentricObserve measures the user-centric address
// accounting: the per-user IPv4 and IPv6 address lists.
func BenchmarkUserCentricObserve(b *testing.B) {
	benchObserveFixture(b, func() Observer { return NewUserCentric() })
}

// BenchmarkAnalyzerSetFold measures the replica fold layer: every
// default analyzer (fullSet) in two replicas, each fed half of a
// block-wise split of the benchmark stream, folded into fresh
// primaries. The primaries and replicas are rebuilt outside the timer
// each iteration, since a fold consumes its replicas.
func BenchmarkAnalyzerSetFold(b *testing.B) {
	const block = 512
	obs := benchObservations(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := fullSet(0)
		replicas := []*Replica{f.set.NewReplica(), f.set.NewReplica()}
		for j, o := range obs {
			replicas[j/block%2].Observe(o)
		}
		b.StartTimer()
		f.set.Fold(replicas...)
	}
}

// BenchmarkIPCentricObserve measures per-record prefix attribution at
// /64: the per-user prefix lists. Prefix populations are counted at
// query time (BenchmarkAnalyzerQueries).
func BenchmarkIPCentricObserve(b *testing.B) {
	benchObserveFixture(b, func() Observer { return NewIPCentric(netaddr.IPv6, 64) })
}

// BenchmarkAnalyzerQueries times the repository benchmark digest's
// query surface (digestQueries) over a fullSet fed an 8k-user oracle
// stream: the work the end-to-end benchmark leaves outside its timer.
// Every op queries a set fed afresh outside the timer, so it pays for
// what the first queries after a pass count (IPCentric's prefix
// populations), as a real run does, not for answers cached by the op
// before it.
func BenchmarkAnalyzerQueries(b *testing.B) {
	stream := oracleStream(1, 8000, 10, 1200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := sequentialFullSet(stream, oracleRef)
		b.StartTimer()
		digestQueries(f)
	}
}
