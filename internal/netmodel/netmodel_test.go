package netmodel

import (
	"testing"
	"testing/quick"

	"userv6/internal/netaddr"
	"userv6/internal/rng"
	"userv6/internal/simtime"
)

func testWorld(t *testing.T) *World {
	t.Helper()
	return BuildWorld(WorldConfig{Seed: 42, Scale: 0.1})
}

func TestWorldConstruction(t *testing.T) {
	w := testWorld(t)
	if len(w.Countries) != len(Countries()) {
		t.Fatalf("countries = %d, want %d", len(w.Countries), len(Countries()))
	}
	if len(w.Hosting) != 4 || len(w.Proxies) != 3 {
		t.Fatalf("hosting/proxies = %d/%d", len(w.Hosting), len(w.Proxies))
	}
	for i, n := range w.Networks() {
		if int(n.ID) != i {
			t.Fatalf("network %d has ID %d", i, n.ID)
		}
		if n.HasV6() && !n.V6.RoutingBlock.IsValid() {
			t.Fatalf("network %s has v6 but no routing block", n.Name)
		}
		if n.HasV4() && !n.V4.Pool.IsValid() {
			t.Fatalf("network %s has v4 but no pool", n.Name)
		}
	}
}

func TestWorldDeterministic(t *testing.T) {
	w1 := BuildWorld(WorldConfig{Seed: 7, Scale: 0.1})
	w2 := BuildWorld(WorldConfig{Seed: 7, Scale: 0.1})
	n1, n2 := w1.Networks(), w2.Networks()
	if len(n1) != len(n2) {
		t.Fatal("network count differs across identical builds")
	}
	for i := range n1 {
		if n1[i].V6.RoutingBlock != n2[i].V6.RoutingBlock || n1[i].V4.Pool != n2[i].V4.Pool {
			t.Fatalf("network %d blocks differ", i)
		}
		a1 := n1[i].V6AddrAt(5, 0, 10, 0, false)
		a2 := n2[i].V6AddrAt(5, 0, 10, 0, false)
		if a1 != a2 {
			t.Fatalf("network %d assigns different addresses", i)
		}
	}
}

func TestRoutingBlocksDisjoint(t *testing.T) {
	w := testWorld(t)
	var v6 []netaddr.Prefix
	var v4 []netaddr.Prefix
	for _, n := range w.Networks() {
		if n.HasV6() {
			v6 = append(v6, n.V6.RoutingBlock)
		}
		if n.HasV4() {
			v4 = append(v4, n.V4.Pool)
		}
	}
	for i := range v6 {
		for j := i + 1; j < len(v6); j++ {
			if v6[i].Overlaps(v6[j]) {
				t.Fatalf("v6 blocks overlap: %s / %s", v6[i], v6[j])
			}
		}
	}
	for i := range v4 {
		for j := i + 1; j < len(v4); j++ {
			if v4[i].Overlaps(v4[j]) {
				t.Fatalf("v4 pools overlap: %s / %s", v4[i], v4[j])
			}
		}
	}
}

func TestASNRouting(t *testing.T) {
	w := testWorld(t)
	for _, n := range w.Networks() {
		if n.HasV6() {
			a := n.V6AddrAt(1, 0, 0, 0, false)
			if !a.IsValid() {
				// Subscriber 1 may lack v6 capability; find one that has it.
				for sub := uint64(0); sub < 100; sub++ {
					if a = n.V6AddrAt(sub, 0, 0, 0, false); a.IsValid() {
						break
					}
				}
			}
			if a.IsValid() {
				if got := w.ASNOf(a); got != n.ASN {
					t.Errorf("%s: ASNOf(%s) = %d, want %d", n.Name, a, got, n.ASN)
				}
			}
		}
		if n.HasV4() {
			a := n.V4AddrAt(1, 0, 0)
			if got := w.ASNOf(a); got != n.ASN {
				t.Errorf("%s: ASNOf(%s) = %d, want %d", n.Name, a, got, n.ASN)
			}
		}
	}
	if got := w.ASNOf(netaddr.MustParseAddr("3fff::1")); got != 0 {
		t.Errorf("ASNOf outside all blocks = %d, want 0", got)
	}
}

// TestASNOfLongestMatch: an address answers with the longest announced
// block that holds it. The world's own blocks never nest, so this
// announces a /40 inside a /32 and a /48 inside the /40, out of length
// order, under three ASNs.
func TestASNOfLongestMatch(t *testing.T) {
	w := testWorld(t)
	outer := netaddr.MustParsePrefix("3fff::/32")
	inner := outer.Subnet(40, 5)
	innermost := inner.Subnet(48, 1)
	w.announce(inner, 65001)
	w.announce(outer, 65000)
	w.announce(innermost, 65002)
	for _, c := range []struct {
		addr netaddr.Addr
		want ASN
	}{
		{outer.Addr(), 65000},
		{inner.Addr(), 65001},
		{innermost.Addr().Next(), 65002},
		{outer.Subnet(40, 6).Addr(), 65000},
	} {
		if got := w.ASNOf(c.addr); got != c.want {
			t.Errorf("ASNOf(%s) = %d, want %d", c.addr, got, c.want)
		}
	}
}

// TestASNOfNoDefault: no block is a default route, so an address that
// no announced block holds, or an invalid one, maps to ASN 0.
func TestASNOfNoDefault(t *testing.T) {
	w := testWorld(t)
	w.announce(netaddr.MustParsePrefix("3fff::/32"), 65000)
	for _, a := range []netaddr.Addr{
		netaddr.MustParseAddr("3ffe::1"),
		netaddr.MustParseAddr("3fff:1::1"),
		{},
	} {
		if got := w.ASNOf(a); got != 0 {
			t.Errorf("ASNOf(%s) = %d, want 0", a, got)
		}
	}
}

// TestASNOfMatchesBruteForce: with 300 random blocks of random lengths
// announced beside the world's own, many of them nested, ASNOf answers
// with the ASN of the longest announced block holding the address, as
// a scan of every block finds it.
func TestASNOfMatchesBruteForce(t *testing.T) {
	src := rng.New(777)
	w := testWorld(t)
	for i := 0; i < 300; i++ {
		p := netaddr.PrefixFrom(netaddr.AddrFrom6(src.Uint64()&0xff00000000000000, src.Uint64()), src.Intn(129))
		w.announce(p, ASN(70000+i))
	}
	f := func(hi, lo uint64) bool {
		a := netaddr.AddrFrom6(hi&0xff00000000000000|hi>>32, lo)
		best, want := -1, ASN(0)
		for p, asn := range w.routes {
			if p.Contains(a) && p.Bits() > best {
				best, want = p.Bits(), asn
			}
		}
		return w.ASNOf(a) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSLAACResidentialBehavior(t *testing.T) {
	w := testWorld(t)
	us := w.CountryByCode("US")
	if us == nil {
		t.Fatal("US missing")
	}
	n := us.ResV6
	// Find a v6-capable subscriber.
	var sub uint64
	for ; sub < 1000; sub++ {
		if n.SubscriberHasV6(sub) {
			break
		}
	}
	day := simtime.Day(10)
	a1 := n.V6AddrAt(sub, 0, day, 0, false)
	a2 := n.V6AddrAt(sub, 0, day, 1, false) // same day, different session
	if a1 != a2 {
		t.Fatal("SLAAC address should be stable within a day")
	}
	next := n.V6AddrAt(sub, 0, day+1, 0, false)
	if next == a1 {
		t.Fatal("daily IID rotation should change the address")
	}
	// Same /64 across rotation (same delegation window).
	if netaddr.PrefixFrom(a1, 64) != netaddr.PrefixFrom(next, 64) {
		t.Fatal("rotated address should stay in the same /64")
	}
	// Two devices share the /64 but differ in IID.
	dev2 := n.V6AddrAt(sub, 1, day, 0, false)
	if netaddr.PrefixFrom(a1, 64) != netaddr.PrefixFrom(dev2, 64) {
		t.Fatal("devices should share the home /64")
	}
	if dev2 == a1 {
		t.Fatal("devices should have distinct IIDs")
	}
	// Delegation eventually rotates to a different prefix.
	changed := false
	base := n.SubscriberDelegation(sub, day)
	if base.Bits() != 56 {
		t.Fatalf("delegation length = %d, want 56", base.Bits())
	}
	for d := day; d < day+40; d++ {
		if n.SubscriberDelegation(sub, d) != base {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("delegation never rotated in 40 days")
	}
}

func TestStaticIIDIsEUI64AndStable(t *testing.T) {
	w := testWorld(t)
	n := w.CountryByCode("US").ResV6
	var sub uint64
	for ; sub < 1000; sub++ {
		if n.SubscriberHasV6(sub) {
			break
		}
	}
	a1 := n.V6AddrAt(sub, 0, 5, 0, true)
	a2 := n.V6AddrAt(sub, 0, 25, 0, true)
	if !netaddr.IsEUI64IID(a1) {
		t.Fatalf("static IID not EUI-64: %s", a1)
	}
	if a1.IID() != a2.IID() {
		t.Fatal("static IID changed across days")
	}
}

func TestMobilePerSessionSubnet(t *testing.T) {
	w := testWorld(t)
	in := w.CountryByCode("IN")
	n := in.MobV6[0] // Reliance Jio
	if n.ASN != 55836 {
		t.Fatalf("first IN mobile = ASN %d, want 55836", n.ASN)
	}
	var sub uint64
	for ; sub < 1000; sub++ {
		if n.SubscriberHasV6(sub) {
			break
		}
	}
	a1 := n.V6AddrAt(sub, 0, 3, 0, false)
	a2 := n.V6AddrAt(sub, 0, 3, 1, false)
	// Sessions within a day stay inside the subscriber's current /64
	// (sticky PDP context), while IIDs churn roughly every other session.
	if netaddr.PrefixFrom(a1, 64) != netaddr.PrefixFrom(a2, 64) {
		t.Fatal("same-day sessions should share the current /64")
	}
	if a1 == a2 {
		t.Fatal("consecutive sessions should rotate the IID")
	}
	// Both inside the carrier's routing block.
	if !n.V6.RoutingBlock.Contains(a1) || !n.V6.RoutingBlock.Contains(a2) {
		t.Fatal("session subnets escaped routing block")
	}
	// The /64 eventually moves (subnet lifetime boundary).
	moved := false
	for d := simtime.Day(0); d < 30; d++ {
		if netaddr.PrefixFrom(n.V6AddrAt(sub, 0, d, 0, false), 64) != netaddr.PrefixFrom(a1, 64) {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("mobile /64 never moved in 30 days")
	}
}

func TestGatewayStructuredIIDs(t *testing.T) {
	w := testWorld(t)
	us := w.CountryByCode("US")
	var gw *Network
	for _, m := range us.MobV6 {
		if m.ASN == 20057 {
			gw = m
		}
	}
	if gw == nil {
		t.Fatal("AT&T gateway network missing")
	}
	if gw.Kind != MobileGateway {
		t.Fatalf("kind = %v", gw.Kind)
	}
	seen112 := make(map[netaddr.Prefix]bool)
	seenAddr := make(map[netaddr.Addr]bool)
	for sub := uint64(0); sub < 3000; sub++ {
		a := gw.V6AddrAt(sub, 0, 7, 0, false)
		if !a.IsValid() {
			continue
		}
		if !netaddr.IsStructuredIID(a) {
			t.Fatalf("gateway address lacks structured IID: %s", a)
		}
		seen112[netaddr.PrefixFrom(a, 112)] = true
		seenAddr[a] = true
	}
	if len(seen112) == 0 {
		t.Fatal("no gateway addresses at all")
	}
	if len(seen112) > gw.V6.Gateways {
		t.Fatalf("more /112s (%d) than gateways (%d)", len(seen112), gw.V6.Gateways)
	}
	// Many subscribers, few addresses: heavy aggregation.
	if len(seenAddr) > gw.V6.Gateways*gw.V6.SlotsPerGateway {
		t.Fatalf("%d distinct addresses exceeds gateways*slots", len(seenAddr))
	}
}

func TestHouseholdV4LeaseStability(t *testing.T) {
	w := testWorld(t)
	n := w.CountryByCode("BR").ResV4
	sub := uint64(99)
	a1 := n.V4AddrAt(sub, 10, 0)
	a2 := n.V4AddrAt(sub, 11, 3)
	if !a1.Is4() {
		t.Fatalf("household address not v4: %s", a1)
	}
	if a1 != a2 {
		// Lease might have rolled exactly between days 10 and 11 for
		// this subscriber; adjacent days mostly match.
		same := 0
		for d := simtime.Day(0); d < 16; d++ {
			if n.V4AddrAt(sub, d, 0) == n.V4AddrAt(sub, d+1, 0) {
				same++
			}
		}
		if same < 14 {
			t.Fatalf("household v4 unstable: only %d/16 adjacent days equal", same)
		}
	}
	// Address changes across a full lease period.
	far := n.V4AddrAt(sub, 10+simtime.Day(n.V4.LeaseDays)*3, 0)
	if far == a1 {
		t.Fatal("lease never rotated")
	}
}

func TestCGNPoolBounded(t *testing.T) {
	w := testWorld(t)
	id := w.CountryByCode("ID")
	n := id.MobV4
	if n.ASN != 23693 {
		t.Fatalf("ID mobile v4 = ASN %d, want Telkom 23693", n.ASN)
	}
	seen := make(map[netaddr.Addr]bool)
	for sub := uint64(0); sub < 5000; sub++ {
		for sess := 0; sess < 3; sess++ {
			seen[n.V4AddrAt(sub, 3, sess)] = true
		}
	}
	if len(seen) > n.V4.PoolSize {
		t.Fatalf("CGN produced %d addresses, pool size %d", len(seen), n.V4.PoolSize)
	}
	if len(seen) < n.V4.PoolSize/2 {
		t.Fatalf("CGN pool underused: %d of %d", len(seen), n.V4.PoolSize)
	}
}

func TestHostingIIDHopping(t *testing.T) {
	w := testWorld(t)
	h := w.Hosting[0]
	sn := h.HostSubnet(7)
	if sn.Bits() != 64 {
		t.Fatalf("host subnet length = %d", sn.Bits())
	}
	a1 := h.HostAddrWithIID(7, 100)
	a2 := h.HostAddrWithIID(7, 200)
	if netaddr.PrefixFrom(a1, 64) != sn || netaddr.PrefixFrom(a2, 64) != sn {
		t.Fatal("hopped IIDs left the host /64")
	}
	if a1 == a2 {
		t.Fatal("distinct IIDs gave equal addresses")
	}
	// Non-hosting networks return the zero value.
	if w.Proxies[0].HostAddrWithIID(1, 1).IsValid() {
		t.Fatal("proxy should not expose host addressing")
	}
}

func TestSubscriberShareRespected(t *testing.T) {
	w := testWorld(t)
	n := w.CountryByCode("DE").ResV6 // Deutsche Telekom, share 0.83
	if n.ASN != 3320 {
		t.Fatalf("DE residential = ASN %d", n.ASN)
	}
	with := 0
	const subs = 20000
	for sub := uint64(0); sub < subs; sub++ {
		if n.SubscriberHasV6(sub) {
			with++
		}
	}
	got := float64(with) / subs
	if got < 0.80 || got > 0.86 {
		t.Fatalf("DT v6 subscriber share = %v, want ~0.83", got)
	}
	// Legacy ISP: ~13% (the paper's under-10%-of-users ASN band once
	// weighted by activity).
	leg := w.CountryByCode("DE").ResLegacy
	with = 0
	for sub := uint64(0); sub < subs; sub++ {
		if leg.SubscriberHasV6(sub) {
			with++
		}
	}
	got = float64(with) / subs
	if got < 0.11 || got > 0.15 {
		t.Fatalf("legacy v6 share = %v, want ~0.13", got)
	}
}

func TestV6NoneNetworksNeverAssignV6(t *testing.T) {
	w := testWorld(t)
	// Nigeria's v4 ISP has no IPv6 at all (ResV6 below trial threshold).
	n := w.CountryByCode("NG").ResV4
	for sub := uint64(0); sub < 100; sub++ {
		if n.V6AddrAt(sub, 0, 0, 0, false).IsValid() {
			t.Fatal("v4-only network assigned v6")
		}
		if n.SubscriberHasV6(sub) {
			t.Fatal("v4-only network claims v6 subscriber")
		}
	}
}

func TestASNNames(t *testing.T) {
	w := testWorld(t)
	for asn, want := range map[ASN]string{
		20057: "AT&T Mobility",
		13335: "Cloudflare",
		23693: "Telkom Indonesia",
		55836: "Reliance Jio",
	} {
		if got := w.ASNName(asn); got != want {
			t.Errorf("ASNName(%d) = %q, want %q", asn, got, want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if Residential.String() != "residential" || MobileGateway.String() != "mobile-gateway" {
		t.Fatal("kind labels wrong")
	}
	if Kind(99).String() != "kind(99)" {
		t.Fatal("unknown kind label wrong")
	}
}

func BenchmarkV6AddrAt(b *testing.B) {
	w := BuildWorld(WorldConfig{Seed: 1, Scale: 0.1})
	n := w.CountryByCode("US").ResV6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.V6AddrAt(uint64(i%1024), 0, simtime.Day(i%28), 0, false)
	}
}
