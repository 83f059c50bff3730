package netmodel

import (
	"fmt"
	"slices"

	"userv6/internal/netaddr"
	"userv6/internal/rng"
)

// WorldConfig controls world construction.
type WorldConfig struct {
	// Seed drives all deterministic address-block and parameter choices.
	Seed uint64
	// Scale linearly adjusts shared-pool sizes (CGN pools, gateway slot
	// counts, mobile /64 pools) to the simulated population size.
	// Scale 1.0 is calibrated for roughly 200k simulated users.
	Scale float64
}

// CountryNets bundles a country's calibration row with its constructed
// access networks. The population synthesizer assigns user contexts from
// these.
type CountryNets struct {
	Country Country
	// ResV6 is the IPv6-deploying residential ISP, ResV4 the v4-only
	// one, ResLegacy the ISP with marginal (<10%) IPv6 rollout.
	ResV6, ResV4, ResLegacy *Network
	// MobV6 are the IPv6 mobile carriers with selection weights MobV6W;
	// MobV4 is the v4-only carrier.
	MobV6  []*Network
	MobV6W []float64
	MobV4  *Network
	// EntV6 and EntV4 are the aggregate enterprise networks.
	EntV6, EntV4 *Network
}

// World is the constructed internet: countries with their networks,
// global hosting and proxy providers, and routing metadata.
type World struct {
	Countries []*CountryNets
	// Hosting and Proxies are the global provider fleets used by both
	// benign VPN users and attackers.
	Hosting []*Network
	Proxies []*Network
	// Transition are the 6to4/Teredo relay pseudo-networks (§4.4).
	Transition []*Network

	networks []*Network
	asnNames map[ASN]string
	// routes maps each announced block to its ASN, and routeLens holds
	// each family's block lengths, longest first: ASNOf is a
	// longest-prefix match of one map probe per length.
	routes    map[netaddr.Prefix]ASN
	routeLens map[netaddr.Family][]int

	next6    uint64 // next /32 block index
	next4    uint64 // next IPv4 /12 block index
	synthASN uint32
	scale    float64
	seed     uint64
}

// BuildWorld constructs the world deterministically from cfg.
func BuildWorld(cfg WorldConfig) *World {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	w := &World{
		asnNames:  make(map[ASN]string),
		routes:    make(map[netaddr.Prefix]ASN),
		routeLens: make(map[netaddr.Family][]int),
		synthASN:  64512,
		scale:     cfg.Scale,
		seed:      cfg.Seed,
	}
	for _, c := range Countries() {
		w.Countries = append(w.Countries, w.buildCountry(c))
	}
	w.buildGlobal()
	return w
}

// Scale returns the pool-size scale factor the world was built with.
func (w *World) Scale() float64 { return w.scale }

// Networks returns all constructed networks, indexed by Network.ID.
func (w *World) Networks() []*Network { return w.networks }

// ASNName returns the operator name registered for an ASN.
func (w *World) ASNName(a ASN) string { return w.asnNames[a] }

// ASNOf returns the ASN announcing addr, or 0 if the address is outside
// every constructed block (which indicates a generator bug).
func (w *World) ASNOf(a netaddr.Addr) ASN {
	for _, bits := range w.routeLens[a.Family()] {
		if asn, ok := w.routes[netaddr.PrefixFrom(a, bits)]; ok {
			return asn
		}
	}
	return 0
}

// announce routes block p to asn.
func (w *World) announce(p netaddr.Prefix, asn ASN) {
	w.routes[p] = asn
	lens := w.routeLens[p.Family()]
	if !slices.Contains(lens, p.Bits()) {
		lens = append(lens, p.Bits())
		slices.SortFunc(lens, func(a, b int) int { return b - a })
		w.routeLens[p.Family()] = lens
	}
}

// CountryByCode returns the CountryNets for a code, or nil.
func (w *World) CountryByCode(code string) *CountryNets {
	for _, c := range w.Countries {
		if c.Country.Code == code {
			return c
		}
	}
	return nil
}

// scaled returns base scaled by the world's scale factor, floored at min.
func (w *World) scaled(base float64, min int) int {
	v := int(base * w.scale)
	if v < min {
		v = min
	}
	return v
}

// alloc6 reserves the next IPv6 routing block of the given length under
// the synthetic global-unicast arena.
func (w *World) alloc6(bits int) netaddr.Prefix {
	base := netaddr.MustParsePrefix("2400::/6")
	block := base.Subnet(32, w.next6)
	w.next6++
	if bits <= 32 {
		return block
	}
	// Longer routing prefixes still get a dedicated /32 so blocks never
	// collide; the announced prefix is its first subnet of that length.
	return block.Subnet(bits, 0)
}

// alloc4 reserves the next IPv4 /12 pool.
func (w *World) alloc4() netaddr.Prefix {
	base := netaddr.MustParsePrefix("0.0.0.0/0")
	p := base.Subnet(12, w.next4)
	w.next4++
	return p
}

// nextSynthASN returns a fresh private-range ASN.
func (w *World) nextSynthASN() ASN {
	a := ASN(w.synthASN)
	w.synthASN++
	return a
}

// netSpec is the builder input for one network.
type netSpec struct {
	asn     ASN // 0 means allocate a synthetic ASN
	name    string
	country string
	kind    Kind
	v6      V6Policy // RoutingBlock filled by builder when Mode != V6None
	v6Bits  int      // routing block length (default 32)
	v4      V4Policy // Pool filled by builder when Mode != V4None
}

// addNetwork constructs, registers and returns a network.
func (w *World) addNetwork(s netSpec) *Network {
	asn := s.asn
	if asn == 0 {
		asn = w.nextSynthASN()
	}
	n := &Network{
		ID:      uint32(len(w.networks)),
		ASN:     asn,
		Name:    s.name,
		Country: s.country,
		Kind:    s.kind,
		V6:      s.v6,
		V4:      s.v4,
	}
	n.seed = rng.Derive(w.seed, fmt.Sprintf("net/%s/%d", s.name, n.ID))
	if n.V6.Mode != V6None {
		bits := s.v6Bits
		if bits == 0 {
			bits = 32
		}
		n.V6.RoutingBlock = w.alloc6(bits)
		w.announce(n.V6.RoutingBlock, asn)
	}
	if n.V4.Mode != V4None {
		n.V4.Pool = w.alloc4()
		w.announce(n.V4.Pool, asn)
	}
	w.networks = append(w.networks, n)
	w.asnNames[asn] = s.name
	return n
}

// realMobile describes a named carrier from the paper's Table 1.
type realMobile struct {
	asn    ASN
	name   string
	weight float64
}

// namedNetworks returns the paper-named operators for a country, if any.
// Countries without entries get synthetic operators.
func namedNetworks(code string) (resV6 *netSpec, mobiles []realMobile) {
	switch code {
	case "IN":
		return nil, []realMobile{{55836, "Reliance Jio", 0.8}, {0, "Airtel IN", 0.2}}
	case "US":
		return &netSpec{asn: 7922, name: "Comcast"}, []realMobile{
			{21928, "T-Mobile US", 0.30},
			{10507, "Sprint", 0.15},
			{22394, "Verizon Wireless", 0.25},
			// AT&T Mobility: the structured-IID gateway carrier behind
			// the paper's heavy IPv6 outliers (ASN 20057).
			{20057, "AT&T Mobility", 0.30},
		}
	case "GB":
		return &netSpec{asn: 5607, name: "Sky Broadband"}, nil
	case "DE":
		return &netSpec{asn: 3320, name: "Deutsche Telekom"}, nil
	case "TH":
		return nil, []realMobile{{131445, "Advanced Wireless Network", 1}}
	case "BR":
		return &netSpec{asn: 26599, name: "Telefonica Brasil"}, []realMobile{{26615, "TIM Brasil", 1}}
	default:
		return nil, nil
	}
}

func (w *World) buildCountry(c Country) *CountryNets {
	cn := &CountryNets{Country: c}
	namedRes, namedMob := namedNetworks(c.Code)

	// IPv6 residential ISP: household NAT v4 + delegated-prefix SLAAC
	// v6 with daily privacy-IID rotation on most lines.
	resSpec := netSpec{
		country: c.Code, kind: Residential,
		name: "Res6-" + c.Code,
		v6: V6Policy{
			Mode:            V6SLAAC,
			DelegatedLen:    56,
			IIDRotationDays: 1,
			// A delegated prefix occasionally re-draws (CPE reboots,
			// ISP renumbering): every ~45 days.
			DelegationRotationDays: 45,
		},
		v4: V4Policy{Mode: V4Household, LeaseDays: 9, StaticShare: 0.18},
	}
	if namedRes != nil {
		resSpec.asn, resSpec.name = namedRes.asn, namedRes.name
	}
	cn.ResV6 = w.addNetwork(resSpec)
	cn.ResV6.V6SubscriberShare = subscriberShareFor(resSpec.asn)

	// Predominantly-v4 residential ISP: in countries with meaningful
	// IPv6 momentum it runs a small trial deployment (<10% of lines),
	// elsewhere none at all — together with the legacy ISPs this yields
	// the paper's §4.2 bands (10.7% of ASNs zero-v6, 28.3% under 10%).
	res4 := netSpec{
		country: c.Code, kind: Residential, name: "Res4-" + c.Code,
		v4: V4Policy{Mode: V4Household, LeaseDays: 11, StaticShare: 0.22},
	}
	if c.ResV6 > 0.05 {
		res4.v6 = V6Policy{Mode: V6SLAAC, DelegatedLen: 56, IIDRotationDays: 1, DelegationRotationDays: 25}
	}
	cn.ResV4 = w.addNetwork(res4)
	cn.ResV4.V6SubscriberShare = 0.03

	// Legacy ISP: IPv6 exists but reaches only a sliver of subscribers.
	cn.ResLegacy = w.addNetwork(netSpec{
		country: c.Code, kind: Residential, name: "ResLegacy-" + c.Code,
		v6: V6Policy{Mode: V6SLAAC, DelegatedLen: 56, IIDRotationDays: 1, DelegationRotationDays: 30},
		v4: V4Policy{Mode: V4Household, LeaseDays: 29, StaticShare: 0.25},
	})
	cn.ResLegacy.V6SubscriberShare = 0.13

	// IPv6 mobile carriers: per-session /64 v6 + CGN v4. The /64 pool
	// and CGN pool scale with the population.
	mobs := namedMob
	if len(mobs) == 0 {
		mobs = []realMobile{{0, "Mob6-" + c.Code, 1}}
	}
	for _, m := range mobs {
		spec := netSpec{
			asn: m.asn, name: m.name, country: c.Code, kind: Mobile,
			v6: V6Policy{
				Mode: V6PerSessionSubnet,
				// Finite PGW /64 pool: multiple users share a /64
				// within a week, per Fig. 9's /64 aggregation.
				PoolSize:           w.scaled(4000, 64),
				SubnetLifetimeDays: 14,
			},
			v4: V4Policy{Mode: V4CGN, PoolSize: w.scaled(2500, 128), HotShare: 0.5},
		}
		if m.asn == 20057 {
			// AT&T Mobility: gateway aggregation with structured IIDs.
			spec.kind = MobileGateway
			spec.v6 = V6Policy{
				Mode:            V6Gateway,
				Gateways:        w.scaled(40, 3),
				SlotsPerGateway: 4,
			}
		}
		n := w.addNetwork(spec)
		n.V6SubscriberShare = mobileShareFor(m.asn)
		cn.MobV6 = append(cn.MobV6, n)
		cn.MobV6W = append(cn.MobV6W, m.weight)
	}

	// v4-only carrier. Indonesia's is the mega-CGN (Telkom 23693 plus
	// Axiata/Indosat share its profile); India's v4 carrier is Vodafone.
	mv4 := netSpec{
		country: c.Code, kind: Mobile, name: "Mob4-" + c.Code,
		v4: V4Policy{Mode: V4CGN, PoolSize: w.scaled(2500, 128), HotShare: 0.5},
	}
	if c.MobV6 > 0.05 {
		// Carriers in markets with any v6 momentum run small trials.
		mv4.v6 = V6Policy{Mode: V6PerSessionSubnet, PoolSize: w.scaled(4000, 64), SubnetLifetimeDays: 14}
	}
	switch c.Code {
	case "ID":
		mv4.asn, mv4.name = 23693, "Telkom Indonesia"
		// Mega-CGN: a tiny public pool serving a huge base — the
		// source of the paper's 830k-users-per-IPv4 outliers.
		mv4.v4.PoolSize = w.scaled(24, 4)
	case "IN":
		mv4.asn, mv4.name = 38266, "Vodafone India"
		mv4.v4.PoolSize = w.scaled(90, 8)
	}
	cn.MobV4 = w.addNetwork(mv4)
	cn.MobV4.V6SubscriberShare = 0.04

	// Enterprise aggregates: static egress v4; v6 side adds static
	// per-site subnets with weekly-rotating device IIDs.
	cn.EntV6 = w.addNetwork(netSpec{
		country: c.Code, kind: Enterprise, name: "Ent6-" + c.Code,
		v6:     V6Policy{Mode: V6SLAAC, DelegatedLen: 64, IIDRotationDays: 7},
		v6Bits: 40,
		v4:     V4Policy{Mode: V4Static, PoolSize: w.scaled(700, 32)},
	})
	cn.EntV6.V6SubscriberShare = 0.55
	ent4 := netSpec{
		country: c.Code, kind: Enterprise, name: "Ent4-" + c.Code,
		v4: V4Policy{Mode: V4Static, PoolSize: w.scaled(700, 32)},
	}
	if c.EntV6 > 0.04 {
		// A few sites in most enterprise aggregates dual-stack.
		ent4.v6 = V6Policy{Mode: V6SLAAC, DelegatedLen: 64, IIDRotationDays: 7}
		ent4.v6Bits = 40
	}
	cn.EntV4 = w.addNetwork(ent4)
	cn.EntV4.V6SubscriberShare = 0.12
	return cn
}

// buildGlobal constructs the hosting and proxy fleets.
func (w *World) buildGlobal() {
	hosting := []struct {
		asn  ASN
		name string
	}{
		{16276, "OVH"},
		{14061, "DigitalOcean"},
		{0, "SynthHost-1"},
		{0, "SynthHost-2"},
	}
	for _, h := range hosting {
		n := w.addNetwork(netSpec{
			asn: h.asn, name: h.name, country: "ZZ", kind: Hosting,
			v6: V6Policy{Mode: V6StaticHost},
			v4: V4Policy{Mode: V4Static, PoolSize: w.scaled(4000, 256)},
		})
		n.V6SubscriberShare = 1
		w.Hosting = append(w.Hosting, n)
	}
	proxies := []struct {
		asn  ASN
		name string
	}{
		{13335, "Cloudflare"},
		{9009, "M247"},
		{0, "SynthVPN"},
	}
	for _, p := range proxies {
		n := w.addNetwork(netSpec{
			asn: p.asn, name: p.name, country: "ZZ", kind: Proxy,
			v6: V6Policy{Mode: V6StaticPool, PoolSize: w.scaled(400, 48)},
			v4: V4Policy{Mode: V4StaticPool, PoolSize: w.scaled(100, 12)},
		})
		n.V6SubscriberShare = 1
		w.Proxies = append(w.Proxies, n)
	}

	// 6to4 and Teredo transition relays: IPv6 inside the well-known
	// transition prefixes, tunneled over a household IPv4 line.
	for _, tr := range []struct {
		name  string
		block string
	}{
		{"6to4 Relay", "2002::/16"},
		{"Teredo Relay", "2001::/32"},
	} {
		n := w.addNetwork(netSpec{
			name: tr.name, country: "ZZ", kind: Residential,
			v4: V4Policy{Mode: V4Household, LeaseDays: 23},
		})
		// Transition blocks are fixed by RFC, not drawn from the arena.
		n.V6 = V6Policy{Mode: V6SLAAC, RoutingBlock: netaddr.MustParsePrefix(tr.block), DelegatedLen: 56, IIDRotationDays: 1}
		n.V6SubscriberShare = 1
		w.announce(n.V6.RoutingBlock, n.ASN)
		w.Transition = append(w.Transition, n)
	}
}

// subscriberShareFor returns the fraction of a residential ISP's
// subscribers with working IPv6, using Table 1's published ratios for
// the named operators.
func subscriberShareFor(asn ASN) float64 {
	switch asn {
	case 5607: // Sky Broadband
		return 0.95
	case 3320: // Deutsche Telekom
		return 0.83
	case 7922: // Comcast
		return 0.82
	case 26599: // Telefonica Brasil
		return 0.86
	default:
		return 0.75
	}
}

// mobileShareFor is subscriberShareFor for mobile carriers.
func mobileShareFor(asn ASN) float64 {
	switch asn {
	case 55836: // Reliance Jio
		return 0.96
	case 21928: // T-Mobile US
		return 0.95
	case 131445: // Advanced Wireless Network
		return 0.88
	case 10507: // Sprint
		return 0.86
	case 22394: // Verizon Wireless
		return 0.86
	case 20057: // AT&T Mobility
		return 0.80
	case 26615: // TIM Brasil
		return 0.82
	default:
		return 0.72
	}
}
