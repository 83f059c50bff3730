package telemetry

import (
	"math"
	"slices"
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/simtime"
)

// sightingKey is everything of a record but its requests: the identity
// Coalesce merges on, its (user, day) run included.
type sightingKey struct {
	user    uint64
	day     simtime.Day
	addr    netaddr.Addr
	asn     netmodel.ASN
	country [2]byte
	abusive bool
}

func keyOfRecord(o Observation) sightingKey {
	return sightingKey{o.UserID, o.Day, o.Addr, o.ASN, o.Country, o.Abusive}
}

// TestCoalesce pins Coalesce case by case: what merges, what stays
// apart, and the order of what is kept.
func TestCoalesce(t *testing.T) {
	v4, v6 := netaddr.AddrFrom4(0xc000_0201), netaddr.AddrFrom6(0x2001_0db8<<32, 1)
	rec := func(user uint64, day simtime.Day, addr netaddr.Addr, reqs uint32) Observation {
		o := Observation{Day: day, UserID: user, Addr: addr, ASN: 64500, Requests: reqs}
		o.SetCountry("DE")
		return o
	}
	with := func(o Observation, change func(*Observation)) Observation {
		change(&o)
		return o
	}
	a := rec(1, 5, v6, 3)
	b := rec(1, 5, v4, 4)
	c := rec(1, 5, netaddr.AddrFrom6(0x2001_0db8<<32, 2), 5)
	reqs := func(o Observation, n uint32) Observation { o.Requests = n; return o }

	// past holds coalesceScan+1 distinct sightings of one run, so the
	// first lies past the scan bound of a record that follows them all
	// and the second does not.
	var past []Observation
	for i := 0; i <= coalesceScan; i++ {
		past = append(past, rec(1, 5, netaddr.AddrFrom6(0x2001_0db8<<32, uint64(100+i)), 1))
	}

	for _, tc := range []struct {
		name   string
		in     []Observation
		want   []Observation
		shrink bool // whether the output must be shorter
	}{
		{"empty", nil, nil, false},
		{"single record", []Observation{a}, []Observation{a}, false},
		{"one sighting merges", []Observation{a, a, reqs(a, 10)}, []Observation{reqs(a, 16)}, true},
		{"first-seen order", []Observation{a, b, reqs(a, 1), c, reqs(b, 2), reqs(c, 3)},
			[]Observation{reqs(a, 4), reqs(b, 6), reqs(c, 8)}, true},
		{"address differs", []Observation{a, c}, []Observation{a, c}, false},
		{"address family differs", []Observation{rec(1, 5, netaddr.AddrFrom4(7), 1), rec(1, 5, netaddr.AddrFrom6(0, 7), 1)},
			[]Observation{rec(1, 5, netaddr.AddrFrom4(7), 1), rec(1, 5, netaddr.AddrFrom6(0, 7), 1)}, false},
		{"ASN differs", []Observation{a, with(a, func(o *Observation) { o.ASN++ })},
			[]Observation{a, with(a, func(o *Observation) { o.ASN++ })}, false},
		{"country differs", []Observation{a, with(a, func(o *Observation) { o.SetCountry("DK") })},
			[]Observation{a, with(a, func(o *Observation) { o.SetCountry("DK") })}, false},
		{"label differs", []Observation{a, with(a, func(o *Observation) { o.Abusive = true })},
			[]Observation{a, with(a, func(o *Observation) { o.Abusive = true })}, false},
		{"another user", []Observation{a, with(a, func(o *Observation) { o.UserID = 2 })},
			[]Observation{a, with(a, func(o *Observation) { o.UserID = 2 })}, false},
		{"next day", []Observation{a, with(a, func(o *Observation) { o.Day++ })},
			[]Observation{a, with(a, func(o *Observation) { o.Day++ })}, false},
		{"a run that returns is a new run", []Observation{a, with(b, func(o *Observation) { o.UserID = 2 }), a},
			[]Observation{a, with(b, func(o *Observation) { o.UserID = 2 }), a}, false},
		{"sum that would overflow", []Observation{reqs(a, math.MaxUint32-1), reqs(a, 2), reqs(a, 5)},
			[]Observation{reqs(a, math.MaxUint32-1), reqs(a, 7)}, true},
		{"sum that just fits", []Observation{reqs(a, math.MaxUint32-1), reqs(a, 1)},
			[]Observation{reqs(a, math.MaxUint32)}, true},
		{"repeat past the scan bound", append(slices.Clone(past), past[0]),
			append(slices.Clone(past), past[0]), false},
		{"repeat inside the scan bound", append(slices.Clone(past), past[1]),
			append(append(past[:1:1], reqs(past[1], 2)), past[2:]...), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := slices.Clone(tc.in)
			got := Coalesce(in)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("Coalesce = %+v\nwant %+v", got, tc.want)
			}
			if len(got) > 0 && &got[0] != &in[0] {
				t.Fatal("Coalesce did not work in place")
			}
			if tc.shrink != (len(got) < len(tc.in)) {
				t.Fatalf("kept %d of %d records", len(got), len(tc.in))
			}
		})
	}
}

// TestCoalesceAllocatesNothing: analysis coalesces every block it
// decodes, so Coalesce must not allocate.
func TestCoalesceAllocatesNothing(t *testing.T) {
	block := coalesceBenchStream(t, 200)[:DefaultBlockRecords]
	buf := make([]Observation, len(block))
	if allocs := testing.AllocsPerRun(10, func() {
		copy(buf, block)
		Coalesce(buf)
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per block", allocs)
	}
}

// fuzzCoalesceAddrs are the addresses FuzzCoalesce draws from: an IPv4
// address, an IPv6 address with the same words, and two more.
var fuzzCoalesceAddrs = [4]netaddr.Addr{
	netaddr.AddrFrom4(0xc000_0201), netaddr.AddrFrom6(0, 0xc000_0201),
	netaddr.AddrFrom6(0x2001_0db8<<32, 1), netaddr.AddrFrom6(0x2001_0db8<<32, 2),
}

// fuzzCoalesceRecords decodes three bytes per record. The first picks
// the user, day, address, ASN, country and label from small sets, so
// sightings repeat; the other two pick the requests, small or within
// 255 of the uint32 limit, so sums overflow.
func fuzzCoalesceRecords(data []byte) []Observation {
	var recs []Observation
	for ; len(data) >= 3; data = data[3:] {
		s, size, v := data[0], data[1], data[2]
		o := Observation{
			UserID:   uint64(s & 1),
			Day:      simtime.Day(s >> 1 & 1),
			Addr:     fuzzCoalesceAddrs[s>>2&3],
			ASN:      64500 + netmodel.ASN(s>>4&1),
			Requests: uint32(v),
			Abusive:  s>>6&1 == 1,
		}
		o.Country = [2]byte{'D', 'E' + s>>7}
		if size&1 == 1 {
			o.Requests = math.MaxUint32 - uint32(v)
		}
		recs = append(recs, o)
	}
	return recs
}

// FuzzCoalesce checks Coalesce against a map reference: every
// sighting's request total, summed in uint64, is the input's; the kept
// records are a subsequence of the input in first-seen order; and no
// two neighbours in one run are a sighting whose sum would have fit.
func FuzzCoalesce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 3, 0, 0, 4, 1, 0, 5, 0, 0, 6})
	f.Add([]byte{4, 1, 1, 4, 0, 7, 4, 1, 0, 4, 0, 9})
	f.Add([]byte{0x40, 0, 1, 0x80, 0, 1, 0x10, 0, 1, 0, 0, 1, 2, 0, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzCoalesceRecords(data)
		want := map[sightingKey]uint64{}
		for _, o := range in {
			want[keyOfRecord(o)] += uint64(o.Requests)
		}
		out := Coalesce(slices.Clone(in))

		got := map[sightingKey]uint64{}
		next := 0 // out[k] must match an input record at or after next
		for k, o := range out {
			got[keyOfRecord(o)] += uint64(o.Requests)
			for next < len(in) && keyOfRecord(in[next]) != keyOfRecord(o) {
				next++
			}
			if next == len(in) {
				t.Fatalf("kept record %d, %+v, is not in input order", k, o)
			}
			next++
			if k > 0 && keyOfRecord(out[k-1]) == keyOfRecord(o) &&
				uint64(out[k-1].Requests)+uint64(o.Requests) <= math.MaxUint32 {
				t.Fatalf("records %d and %d repeat one sighting whose sum fits: %+v", k-1, k, o)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%d sightings kept, input has %d", len(got), len(want))
		}
		for key, n := range want {
			if got[key] != n {
				t.Fatalf("sighting %+v: %d requests kept, input has %d", key, got[key], n)
			}
		}
	})
}

// coalesceBenchStream generates the telemetry of users over the
// analysis week, as the generator writes it.
func coalesceBenchStream(tb testing.TB, users int) []Observation {
	tb.Helper()
	var recs []Observation
	testGen(tb, users).Generate(81, 87, func(o Observation) { recs = append(recs, o) })
	return recs
}

// BenchmarkCoalesce times Coalesce per record over the analysis week in
// 1,024-record blocks: as generated, with about 63% of the records
// repeating a sighting, and already coalesced, which leaves nothing to
// merge. As in a read, each block is copied into one reused buffer
// first; the copy is not timed.
func BenchmarkCoalesce(b *testing.B) {
	generated := coalesceBenchStream(b, 2000)
	var coalesced []Observation
	for lo := 0; lo < len(generated); lo += DefaultBlockRecords {
		block := slices.Clone(generated[lo:min(lo+DefaultBlockRecords, len(generated))])
		coalesced = append(coalesced, Coalesce(block)...)
	}
	for _, bc := range []struct {
		name   string
		stream []Observation
	}{{"generated", generated}, {"coalesced", coalesced}} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]Observation, DefaultBlockRecords)
			kept := 0
			b.StopTimer()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kept = 0
				for lo := 0; lo < len(bc.stream); lo += DefaultBlockRecords {
					block := buf[:copy(buf, bc.stream[lo:])]
					b.StartTimer()
					kept += len(Coalesce(block))
					b.StopTimer()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bc.stream)), "ns/record")
			b.ReportMetric(float64(kept)/float64(len(bc.stream)), "kept/record")
		})
	}
}
