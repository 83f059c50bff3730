package trie

import (
	"sort"
	"testing"
	"testing/quick"

	"userv6/internal/netaddr"
	"userv6/internal/rng"
)

func pfx(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }
func addr(s string) netaddr.Addr  { return netaddr.MustParseAddr(s) }

func TestSetGet(t *testing.T) {
	tr := New[string]()
	tr.Set(pfx("2001:db8::/32"), "a")
	tr.Set(pfx("2001:db8::/48"), "b")
	tr.Set(pfx("10.0.0.0/8"), "c")
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for _, c := range []struct {
		p    string
		want string
		ok   bool
	}{
		{"2001:db8::/32", "a", true},
		{"2001:db8::/48", "b", true},
		{"10.0.0.0/8", "c", true},
		{"2001:db8::/40", "", false},
		{"10.0.0.0/9", "", false},
	} {
		got, ok := tr.Get(pfx(c.p))
		if ok != c.ok || got != c.want {
			t.Errorf("Get(%s) = %q, %v; want %q, %v", c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestSetReplaces(t *testing.T) {
	tr := New[int]()
	tr.Set(pfx("::/0"), 1)
	tr.Set(pfx("::/0"), 2)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	if v, _ := tr.Get(pfx("::/0")); v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
}

func TestZeroTrieUsable(t *testing.T) {
	var tr Trie[int]
	if _, ok := tr.Get(pfx("::/0")); ok {
		t.Fatal("zero trie should be empty")
	}
	tr.Set(pfx("1.0.0.0/8"), 7)
	if v, ok := tr.Get(pfx("1.0.0.0/8")); !ok || v != 7 {
		t.Fatal("set on zero trie failed")
	}
}

func TestUpdateCounts(t *testing.T) {
	tr := New[int]()
	p := pfx("2001:db8::/64")
	for i := 0; i < 5; i++ {
		tr.Update(p, func(v *int) { *v++ })
	}
	if v, _ := tr.Get(p); v != 5 {
		t.Fatalf("count = %d", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestDelete(t *testing.T) {
	tr := New[int]()
	tr.Set(pfx("2001:db8::/32"), 1)
	tr.Set(pfx("2001:db8::/64"), 2)
	if !tr.Delete(pfx("2001:db8::/32")) {
		t.Fatal("delete existing returned false")
	}
	if tr.Delete(pfx("2001:db8::/32")) {
		t.Fatal("double delete returned true")
	}
	if tr.Delete(pfx("3fff::/20")) {
		t.Fatal("delete absent returned true")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, ok := tr.Get(pfx("2001:db8::/64")); !ok {
		t.Fatal("sibling lost after delete")
	}
	tr.Compact()
	if _, ok := tr.Get(pfx("2001:db8::/64")); !ok {
		t.Fatal("entry lost after compact")
	}
}

func TestLookupLongestMatch(t *testing.T) {
	tr := New[string]()
	tr.Set(pfx("::/0"), "default")
	tr.Set(pfx("2001:db8::/32"), "net")
	tr.Set(pfx("2001:db8:0:1::/64"), "subnet")
	cases := []struct {
		a          string
		wantPfx    string
		wantV      string
		wantExists bool
	}{
		{"2001:db8:0:1::5", "2001:db8:0:1::/64", "subnet", true},
		{"2001:db8:1::5", "2001:db8::/32", "net", true},
		{"3fff::1", "::/0", "default", true},
	}
	for _, c := range cases {
		p, v, ok := tr.Lookup(addr(c.a))
		if ok != c.wantExists || v != c.wantV || p.String() != c.wantPfx {
			t.Errorf("Lookup(%s) = %s, %q, %v", c.a, p, v, ok)
		}
	}
	// No IPv4 entries: IPv4 lookup misses even with an IPv6 default.
	if _, _, ok := tr.Lookup(addr("1.2.3.4")); ok {
		t.Fatal("cross-family lookup matched")
	}
	if _, _, ok := tr.Lookup(netaddr.Addr{}); ok {
		t.Fatal("invalid addr matched")
	}
}

func TestLookupNoDefault(t *testing.T) {
	tr := New[int]()
	tr.Set(pfx("2001:db8::/32"), 1)
	if _, _, ok := tr.Lookup(addr("3fff::1")); ok {
		t.Fatal("lookup outside any prefix matched")
	}
}

func TestWalkOrderAndCoverage(t *testing.T) {
	tr := New[int]()
	inputs := []string{"10.0.0.0/8", "9.0.0.0/8", "2001:db8::/48", "::/0", "2001:db8::/32", "0.0.0.0/0"}
	for i, s := range inputs {
		tr.Set(pfx(s), i)
	}
	var got []string
	tr.Walk(func(p netaddr.Prefix, _ int) bool {
		got = append(got, p.String())
		return true
	})
	want := []string{"0.0.0.0/0", "9.0.0.0/8", "10.0.0.0/8", "::/0", "2001:db8::/32", "2001:db8::/48"}
	if len(got) != len(want) {
		t.Fatalf("walked %d prefixes, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk order %v, want %v", got, want)
		}
	}
}

func TestWalkEarlyStop(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 10; i++ {
		tr.Set(netaddr.PrefixFrom(netaddr.AddrFrom4(uint32(i)<<24), 8), i)
	}
	n := 0
	tr.Walk(func(netaddr.Prefix, int) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("visited %d, want 3", n)
	}
}

// Property: a trie agrees with a map for random inserts/deletes/gets.
func TestTrieMatchesMapProperty(t *testing.T) {
	src := rng.New(12345)
	tr := New[uint64]()
	ref := make(map[netaddr.Prefix]uint64)
	randPfx := func() netaddr.Prefix {
		if src.Bool(0.3) {
			return netaddr.PrefixFrom(netaddr.AddrFrom4(src.Uint32()), src.Intn(33))
		}
		return netaddr.PrefixFrom(netaddr.AddrFrom6(src.Uint64(), src.Uint64()), src.Intn(129))
	}
	for i := 0; i < 20000; i++ {
		p := randPfx()
		switch src.Intn(3) {
		case 0:
			v := src.Uint64()
			tr.Set(p, v)
			ref[p] = v
		case 1:
			delete(ref, p)
			tr.Delete(p)
		case 2:
			got, ok := tr.Get(p)
			want, wok := ref[p]
			if ok != wok || got != want {
				t.Fatalf("iter %d: Get(%s) = %d,%v want %d,%v", i, p, got, ok, want, wok)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("iter %d: Len = %d, ref = %d", i, tr.Len(), len(ref))
		}
	}
	// Final full verification via Walk.
	walked := make(map[netaddr.Prefix]uint64)
	tr.Walk(func(p netaddr.Prefix, v uint64) bool {
		walked[p] = v
		return true
	})
	if len(walked) != len(ref) {
		t.Fatalf("walk found %d, ref %d", len(walked), len(ref))
	}
	for p, v := range ref {
		if walked[p] != v {
			t.Fatalf("walk value mismatch at %s", p)
		}
	}
}

// Property: Lookup result equals brute-force longest match.
func TestLookupMatchesBruteForceProperty(t *testing.T) {
	src := rng.New(777)
	tr := New[int]()
	var stored []netaddr.Prefix
	for i := 0; i < 300; i++ {
		p := netaddr.PrefixFrom(netaddr.AddrFrom6(src.Uint64()&0xff00000000000000, src.Uint64()), src.Intn(129))
		tr.Set(p, i)
		stored = append(stored, p)
	}
	f := func(hi, lo uint64) bool {
		a := netaddr.AddrFrom6(hi&0xff00000000000000|hi>>32, lo)
		best := -1
		for _, p := range stored {
			if p.Contains(a) && p.Bits() > best {
				best = p.Bits()
			}
		}
		p, _, ok := tr.Lookup(a)
		if best < 0 {
			return !ok
		}
		return ok && p.Bits() == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterMultiLength(t *testing.T) {
	c := NewCounter(32, 64, 128)
	base := addr("2001:db8:1:1::")
	// 3 addresses in the same /64, 1 in a different /64 same /32.
	c.Add(base.WithIID(1), 1)
	c.Add(base.WithIID(2), 1)
	c.Add(base.WithIID(3), 1)
	c.Add(addr("2001:db8:9:9::1"), 1)
	if got := c.Count(pfx("2001:db8::/32")); got != 4 {
		t.Fatalf("/32 count = %d, want 4", got)
	}
	if got := c.Count(pfx("2001:db8:1:1::/64")); got != 3 {
		t.Fatalf("/64 count = %d, want 3", got)
	}
	if got := c.Count(netaddr.PrefixFrom(base.WithIID(1), 128)); got != 1 {
		t.Fatalf("/128 count = %d, want 1", got)
	}
	if got := c.Count(pfx("2001:db8::/48")); got != 0 {
		t.Fatalf("unconfigured length count = %d, want 0", got)
	}
	if c.LenAt(64) != 2 {
		t.Fatalf("LenAt(64) = %d, want 2", c.LenAt(64))
	}
	if c.LenAt(48) != 0 {
		t.Fatalf("LenAt(48) = %d, want 0", c.LenAt(48))
	}
}

func TestCounterSkipsOverlongForV4(t *testing.T) {
	c := NewCounter(24, 64)
	c.Add(addr("10.1.2.3"), 1)
	if got := c.Count(pfx("10.1.2.0/24")); got != 1 {
		t.Fatalf("/24 count = %d", got)
	}
	if c.LenAt(64) != 0 {
		t.Fatal("IPv4 address should not appear at /64")
	}
	c.Add(netaddr.Addr{}, 1) // no-op
	if c.LenAt(24) != 1 {
		t.Fatal("invalid addr affected counter")
	}
}

func TestCounterAtLength(t *testing.T) {
	c := NewCounter(64)
	c.Add(addr("2001:db8::1"), 2)
	c.Add(addr("2001:db8:0:1::1"), 3)
	sum := uint64(0)
	var ps []string
	c.AtLength(64, func(p netaddr.Prefix, v uint64) {
		sum += v
		ps = append(ps, p.String())
	})
	if sum != 5 || len(ps) != 2 {
		t.Fatalf("AtLength sum=%d prefixes=%v", sum, ps)
	}
	sort.Strings(ps)
	if ps[0] != "2001:db8:0:1::/64" || ps[1] != "2001:db8::/64" {
		t.Fatalf("prefixes = %v", ps)
	}
	c.AtLength(48, func(netaddr.Prefix, uint64) { t.Fatal("unconfigured length visited") })
	if got := c.Lengths(); len(got) != 1 || got[0] != 64 {
		t.Fatalf("Lengths = %v", got)
	}
}

// BenchmarkTrieUpdate: one op is a fresh trie fed 4,096 random /64
// prefixes, each inserted once, so every op does the same work;
// ns/update divides by the prefix count.
func BenchmarkTrieUpdate(b *testing.B) {
	src := rng.New(1)
	addrs := make([]netaddr.Prefix, 4096)
	for i := range addrs {
		addrs[i] = netaddr.PrefixFrom(netaddr.AddrFrom6(src.Uint64(), src.Uint64()), 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New[uint64]()
		for _, p := range addrs {
			tr.Update(p, func(v *uint64) { *v++ })
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(addrs)), "ns/update")
}

func BenchmarkTrieLookup(b *testing.B) {
	tr := New[int]()
	src := rng.New(2)
	for i := 0; i < 10000; i++ {
		tr.Set(netaddr.PrefixFrom(netaddr.AddrFrom6(src.Uint64(), src.Uint64()), 48), i)
	}
	probe := netaddr.AddrFrom6(src.Uint64(), src.Uint64())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(probe)
	}
}
