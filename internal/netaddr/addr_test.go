package netaddr

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func TestParseAddrV4(t *testing.T) {
	a, err := ParseAddr("192.0.2.1")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Is4() || a.Is6() {
		t.Fatalf("family = %v, want IPv4", a.Family())
	}
	if got := a.V4(); got != 0xc0000201 {
		t.Fatalf("V4() = %#x, want 0xc0000201", got)
	}
	if got := a.String(); got != "192.0.2.1" {
		t.Fatalf("String() = %q", got)
	}
	if a.Bits() != 32 {
		t.Fatalf("Bits() = %d, want 32", a.Bits())
	}
}

func TestParseAddrV6(t *testing.T) {
	a, err := ParseAddr("2001:db8::1")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Is6() {
		t.Fatalf("family = %v, want IPv6", a.Family())
	}
	hi, lo := a.Words()
	if hi != 0x20010db800000000 || lo != 1 {
		t.Fatalf("Words() = %#x, %#x", hi, lo)
	}
	if got := a.String(); got != "2001:db8::1" {
		t.Fatalf("String() = %q", got)
	}
	if a.Bits() != 128 {
		t.Fatalf("Bits() = %d, want 128", a.Bits())
	}
}

func TestParseAddrErrors(t *testing.T) {
	for _, s := range []string{"", "not-an-ip", "256.1.1.1", "fe80::1%eth0", "2001:db8::/64"} {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) succeeded, want error", s)
		}
	}
}

func TestZeroAddrInvalid(t *testing.T) {
	var a Addr
	if a.IsValid() {
		t.Fatal("zero Addr is valid")
	}
	if a.String() != "invalid" {
		t.Fatalf("String() = %q", a.String())
	}
	if a.Bits() != 0 {
		t.Fatalf("Bits() = %d", a.Bits())
	}
	if a.Netip().IsValid() {
		t.Fatal("zero Addr converts to valid netip")
	}
}

func TestAddrFrom4RoundTrip(t *testing.T) {
	a := AddrFrom4(0x01020304)
	if got := a.String(); got != "1.2.3.4" {
		t.Fatalf("String() = %q", got)
	}
	back := FromNetip(a.Netip())
	if back != a {
		t.Fatalf("round trip mismatch: %v != %v", back, a)
	}
}

func TestV4MappedUnmaps(t *testing.T) {
	a := FromNetip(netip.MustParseAddr("::ffff:1.2.3.4"))
	if !a.Is4() {
		t.Fatalf("v4-mapped should unmap to IPv4, got %v", a.Family())
	}
	if a.String() != "1.2.3.4" {
		t.Fatalf("String() = %q", a.String())
	}
}

func TestAs16(t *testing.T) {
	a := MustParseAddr("2001:db8:1:2:3:4:5:6")
	b := a.As16()
	if got := AddrFrom16(b); got != a {
		t.Fatalf("AddrFrom16(As16()) = %v, want %v", got, a)
	}
	v4 := MustParseAddr("10.0.0.1")
	b16 := v4.As16()
	want := [16]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 10, 0, 0, 1}
	if b16 != want {
		t.Fatalf("As16() = %v, want %v", b16, want)
	}
}

func TestCompareOrdering(t *testing.T) {
	addrs := []string{"0.0.0.0", "10.0.0.1", "255.255.255.255", "::", "2001:db8::", "ffff::"}
	for i := range addrs {
		for j := range addrs {
			a, b := MustParseAddr(addrs[i]), MustParseAddr(addrs[j])
			got := a.Compare(b)
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%s, %s) = %d, want %d", a, b, got, want)
			}
			if a.Less(b) != (want < 0) {
				t.Errorf("Less(%s, %s) mismatch", a, b)
			}
		}
	}
}

func TestNext(t *testing.T) {
	cases := []struct{ in, want string }{
		{"10.0.0.1", "10.0.0.2"},
		{"10.0.0.255", "10.0.1.0"},
		{"255.255.255.255", "0.0.0.0"},
		{"2001:db8::ffff:ffff:ffff:ffff", "2001:db8:0:1::"},
		{"::1", "::2"},
	}
	for _, c := range cases {
		if got := MustParseAddr(c.in).Next(); got != MustParseAddr(c.want) {
			t.Errorf("Next(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestWithIID(t *testing.T) {
	a := MustParseAddr("2001:db8:1:2::")
	b := a.WithIID(0xdeadbeef)
	if b.String() != "2001:db8:1:2::dead:beef" {
		t.Fatalf("WithIID = %s", b)
	}
	if b.IID() != 0xdeadbeef {
		t.Fatalf("IID() = %#x", b.IID())
	}
	v4 := MustParseAddr("1.2.3.4")
	if v4.WithIID(99) != v4 {
		t.Fatal("WithIID should not modify IPv4")
	}
}

func TestPrefixCanonicalization(t *testing.T) {
	a := MustParseAddr("2001:db8:abcd:1234:5678:9abc:def0:1234")
	cases := []struct {
		bits int
		want string
	}{
		{0, "::/0"},
		{16, "2001::/16"},
		{32, "2001:db8::/32"},
		{48, "2001:db8:abcd::/48"},
		{64, "2001:db8:abcd:1234::/64"},
		{68, "2001:db8:abcd:1234:5000::/68"},
		{112, "2001:db8:abcd:1234:5678:9abc:def0:0/112"},
		{128, "2001:db8:abcd:1234:5678:9abc:def0:1234/128"},
	}
	for _, c := range cases {
		p := PrefixFrom(a, c.bits)
		if p.String() != c.want {
			t.Errorf("PrefixFrom(a, %d) = %s, want %s", c.bits, p, c.want)
		}
		if p.Bits() != c.bits {
			t.Errorf("Bits() = %d, want %d", p.Bits(), c.bits)
		}
		if !p.Contains(a) {
			t.Errorf("%s should contain %s", p, a)
		}
	}
}

func TestPrefixFromClamps(t *testing.T) {
	a := MustParseAddr("10.1.2.3")
	if p := PrefixFrom(a, 99); p.Bits() != 32 {
		t.Fatalf("clamp high: Bits() = %d", p.Bits())
	}
	if p := PrefixFrom(a, -5); p.Bits() != 0 {
		t.Fatalf("clamp low: Bits() = %d", p.Bits())
	}
	if p := PrefixFrom(Addr{}, 10); p.IsValid() {
		t.Fatal("prefix of invalid addr should be invalid")
	}
}

func TestPrefixEqualityAsSubnetIdentity(t *testing.T) {
	p1 := PrefixFrom(MustParseAddr("2001:db8::1"), 64)
	p2 := PrefixFrom(MustParseAddr("2001:db8::ffff"), 64)
	if p1 != p2 {
		t.Fatal("same /64 from different hosts should be equal")
	}
	p3 := PrefixFrom(MustParseAddr("2001:db8:0:1::1"), 64)
	if p1 == p3 {
		t.Fatal("different /64s should differ")
	}
}

func TestParsePrefix(t *testing.T) {
	p, err := ParsePrefix("192.0.2.128/25")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "192.0.2.128/25" {
		t.Fatalf("String() = %s", p)
	}
	if !p.Contains(MustParseAddr("192.0.2.200")) {
		t.Error("should contain .200")
	}
	if p.Contains(MustParseAddr("192.0.2.1")) {
		t.Error("should not contain .1")
	}
	for _, bad := range []string{"", "1.2.3.4", "1.2.3.4/33", "::/129", "::/x", "::/-1"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded", bad)
		}
	}
}

func TestPrefixContainsCrossFamily(t *testing.T) {
	p := MustParsePrefix("::/0")
	if p.Contains(MustParseAddr("1.2.3.4")) {
		t.Fatal("IPv6 ::/0 must not contain IPv4 addresses")
	}
	p4 := MustParsePrefix("0.0.0.0/0")
	if p4.Contains(MustParseAddr("::1")) {
		t.Fatal("IPv4 /0 must not contain IPv6 addresses")
	}
}

func TestPrefixOverlaps(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"2001:db8::/32", "2001:db8:1::/48", true},
		{"2001:db8:1::/48", "2001:db8::/32", true},
		{"2001:db8::/32", "2001:db9::/32", false},
		{"10.0.0.0/8", "10.1.0.0/16", true},
		{"10.0.0.0/8", "11.0.0.0/8", false},
		{"10.0.0.0/8", "2001::/16", false},
	}
	for _, c := range cases {
		got := MustParsePrefix(c.a).Overlaps(MustParsePrefix(c.b))
		if got != c.want {
			t.Errorf("Overlaps(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Property: masking is idempotent and monotone — masking at n then at
// m <= n equals masking at m directly, and the masked address is always
// contained in the prefix.
func TestMaskProperties(t *testing.T) {
	f := func(hi, lo uint64, n1, n2 uint8) bool {
		a := AddrFrom6(hi, lo)
		n, m := int(n1)%129, int(n2)%129
		if m > n {
			n, m = m, n
		}
		pn := PrefixFrom(a, n)
		pm := PrefixFrom(a, m)
		// Re-masking the canonical address at the shorter length must
		// equal masking the original at the shorter length.
		if PrefixFrom(pn.Addr(), m) != pm {
			return false
		}
		return pn.Contains(a) && pm.Contains(a) && pm.Contains(pn.Addr())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: As16/AddrFrom16 round-trips for all IPv6 values.
func TestAs16RoundTripProperty(t *testing.T) {
	f := func(hi, lo uint64) bool {
		a := AddrFrom6(hi, lo)
		return AddrFrom16(a.As16()) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: String/ParseAddr round-trips.
func TestStringParseRoundTripProperty(t *testing.T) {
	f := func(hi, lo uint64, v4 uint32) bool {
		a6 := AddrFrom6(hi, lo)
		r6, err := ParseAddr(a6.String())
		if err != nil || r6 != a6 {
			return false
		}
		a4 := AddrFrom4(v4)
		r4, err := ParseAddr(a4.String())
		return err == nil && r4 == a4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Contains is consistent with Overlaps for equal-length args.
func TestContainsOverlapsConsistency(t *testing.T) {
	f := func(hi, lo, hi2, lo2 uint64, n uint8) bool {
		bits := int(n) % 129
		p := PrefixFrom(AddrFrom6(hi, lo), bits)
		q := PrefixFrom(AddrFrom6(hi2, lo2), bits)
		// Same-length prefixes overlap iff equal iff each contains the
		// other's base address.
		return p.Overlaps(q) == (p == q) &&
			p.Contains(q.Addr()) == (p == q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFamilyString(t *testing.T) {
	if IPv4.String() != "IPv4" || IPv6.String() != "IPv6" || Invalid.String() != "invalid" {
		t.Fatal("Family.String mismatch")
	}
}

func BenchmarkPrefixFrom(b *testing.B) {
	a := MustParseAddr("2001:db8:abcd:1234:5678:9abc:def0:1234")
	for i := 0; i < b.N; i++ {
		_ = PrefixFrom(a, i%129)
	}
}

func BenchmarkClassify(b *testing.B) {
	a := MustParseAddr("2001:db8:abcd:1234:5678:9abc:def0:1234")
	for i := 0; i < b.N; i++ {
		_ = Classify(a)
	}
}
