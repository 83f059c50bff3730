// Package abuse models attackers: campaigns that continuously create
// abusive accounts, run them through rented or hijacked infrastructure,
// and lose most of them to detection within a day.
//
// The model encodes the behavioral findings of the paper's abusive-
// account analyses:
//
//   - the population is heavily skewed to one-day lifespans because the
//     platform detects most accounts quickly (§3.3);
//   - accounts use ~one address per day, with IPv4 counts at or above
//     IPv6 counts (forced CGN cycling) — the inverse of benign users
//     (§5.1.2);
//   - IPv6 exits are dominated by hosting providers where the attacker
//     owns a whole /64 and hops interface identifiers, so abusive IPv6
//     addresses are isolated from benign users but cluster inside /64s
//     (§6.1.2, §7.1);
//   - IPv4 exits ride CGN carriers and proxies shared with large benign
//     populations, producing the collateral-damage asymmetry (§6.1.2).
//
// Like the network models, everything is a deterministic function of
// (seed, account, day), so generation is streaming and reproducible.
package abuse

import (
	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/rng"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// AccountIDBase offsets abusive account IDs so they can never collide
// with benign user IDs.
const AccountIDBase uint64 = 1 << 48

// attackerSubBase offsets subscriber identities attackers use on shared
// carrier networks, so they draw from the same address pools as benign
// subscribers without aliasing a benign identity.
const attackerSubBase uint64 = 1 << 40

// ExitKind is the kind of infrastructure an account exits through.
type ExitKind uint8

const (
	// ExitHosting is a rented server: static IPv4, attacker-controlled
	// /64 on IPv6.
	ExitHosting ExitKind = iota
	// ExitMobile is a carrier data subscription (v6 per-session /64s,
	// CGN v4).
	ExitMobile
	// ExitGateway is a subscription on the structured-IID gateway
	// carrier.
	ExitGateway
	// ExitProxy is a commercial proxy/VPN egress.
	ExitProxy
	// ExitCGN is a v4-only carrier subscription (no IPv6 at all).
	ExitCGN
)

// String labels the exit kind.
func (k ExitKind) String() string {
	switch k {
	case ExitHosting:
		return "hosting"
	case ExitMobile:
		return "mobile"
	case ExitGateway:
		return "gateway"
	case ExitProxy:
		return "proxy"
	default:
		return "cgn"
	}
}

// Config tunes the attacker model.
type Config struct {
	Seed uint64
	// AccountsPerDay is the number of new abusive accounts created per
	// day across all campaigns.
	AccountsPerDay int
	// Campaigns is the number of independent attacker groups.
	Campaigns int
	// DetectFirstDay is the probability an account is caught within its
	// first active day (the paper: "the vast majority").
	DetectFirstDay float64
	// SurvivorDailyDeath is the per-day death probability for accounts
	// that evade first-day detection.
	SurvivorDailyDeath float64
	// MaxLifeDays bounds account lifespans.
	MaxLifeDays int
	// HostsPerCampaign is the rented-server fleet size per campaign;
	// HostLifetimeDays is how long a host is kept before replacement;
	// AddrLifetimeDays is how long the attacker keeps one IPv6 IID on a
	// host before hopping.
	HostsPerCampaign, HostLifetimeDays, AddrLifetimeDays int
	// MobileSubsPerCampaign and GatewaySubsPerCampaign size the carrier
	// subscription pools.
	MobileSubsPerCampaign, GatewaySubsPerCampaign int
	// Exit mix (weights, normalized internally).
	HostingW, MobileW, GatewayW, ProxyW, CGNW float64
	// RequestsMean is the mean requests per account-day.
	RequestsMean float64
	// V4ExtraSessionMean adds forced CGN re-connects: extra IPv4
	// sessions per account-day beyond the first.
	V4ExtraSessionMean float64
}

// DefaultConfig returns the calibrated attacker defaults for a 200k-user
// world (scale with population size).
func DefaultConfig() Config {
	return Config{
		Seed:                   1,
		AccountsPerDay:         700,
		Campaigns:              12,
		DetectFirstDay:         0.85,
		SurvivorDailyDeath:     0.45,
		MaxLifeDays:            21,
		HostsPerCampaign:       8,
		HostLifetimeDays:       5,
		AddrLifetimeDays:       2,
		MobileSubsPerCampaign:  800,
		GatewaySubsPerCampaign: 300,
		HostingW:               0.18,
		MobileW:                0.16,
		GatewayW:               0.08,
		ProxyW:                 0.14,
		CGNW:                   0.44,
		RequestsMean:           14,
		V4ExtraSessionMean:     1.2,
	}
}

// Generator produces abusive-account telemetry.
type Generator struct {
	World *netmodel.World
	Cfg   Config
	seed  uint64
	// carrier shortlists the attacker concentrates on.
	cgnNets     []*netmodel.Network
	mobileNets  []*netmodel.Network
	gatewayNets []*netmodel.Network
	mix         []float64
}

// NewGenerator builds a generator over the given world.
func NewGenerator(w *netmodel.World, cfg Config) *Generator {
	g := &Generator{World: w, Cfg: cfg, seed: rng.Derive(cfg.Seed, "abuse")}
	// Attackers concentrate on large v4-heavy carriers (cheap SIM pools)
	// and the v6 mobile carriers of big countries.
	for _, code := range []string{"ID", "IN", "PH", "VN", "BR"} {
		if c := w.CountryByCode(code); c != nil {
			g.cgnNets = append(g.cgnNets, c.MobV4)
			if len(c.MobV6) > 0 {
				g.mobileNets = append(g.mobileNets, c.MobV6[0])
			}
		}
	}
	if us := w.CountryByCode("US"); us != nil {
		for _, m := range us.MobV6 {
			if m.Kind == netmodel.MobileGateway {
				g.gatewayNets = append(g.gatewayNets, m)
			}
		}
	}
	g.mix = []float64{cfg.HostingW, cfg.MobileW, cfg.GatewayW, cfg.ProxyW, cfg.CGNW}
	return g
}

// Account describes one abusive account's static properties.
type Account struct {
	// ID is the platform user ID (offset by AccountIDBase).
	ID uint64
	// Index is the global creation index.
	Index uint64
	// Campaign identifies the owning attacker group.
	Campaign int
	// Birth is the first active day; Life the number of active days.
	Birth simtime.Day
	Life  int
	// Exit is the infrastructure kind the account operates through.
	Exit ExitKind
}

// AccountAt reconstructs the account with global index k.
func (g *Generator) AccountAt(k uint64) Account {
	src := rng.New(rng.DeriveN(g.seed, k))
	a := Account{
		ID:       AccountIDBase + k,
		Index:    k,
		Campaign: int(k % uint64(max(1, g.Cfg.Campaigns))),
		Birth:    simtime.Day(k / uint64(max(1, g.Cfg.AccountsPerDay))),
	}
	if src.Bool(g.Cfg.DetectFirstDay) {
		a.Life = 1
	} else {
		a.Life = 2 + src.Geometric(g.Cfg.SurvivorDailyDeath)
		if a.Life > g.Cfg.MaxLifeDays {
			a.Life = g.Cfg.MaxLifeDays
		}
	}
	a.Exit = ExitKind(src.WeightedChoice(g.mix))
	return a
}

// ActiveOn reports whether the account is active on day d.
func (a Account) ActiveOn(d simtime.Day) bool {
	return d >= a.Birth && int(d-a.Birth) < a.Life
}

// ForEachActive calls fn for every account active on day d. No account
// is born before day 0, so none is active on a negative day.
func (g *Generator) ForEachActive(d simtime.Day, fn func(Account)) {
	if d < 0 {
		return
	}
	perDay := uint64(max(1, g.Cfg.AccountsPerDay))
	firstBirth := int64(d) - int64(g.Cfg.MaxLifeDays) + 1
	if firstBirth < 0 {
		firstBirth = 0
	}
	start := uint64(firstBirth) * perDay
	end := (uint64(d) + 1) * perDay
	for k := start; k < end; k++ {
		if a := g.AccountAt(k); a.ActiveOn(d) {
			fn(a)
		}
	}
}

// GenerateDay emits the telemetry of all abusive accounts active on day
// d. Observations carry Abusive = true.
func (g *Generator) GenerateDay(d simtime.Day, emit telemetry.EmitFunc) {
	g.ForEachActive(d, func(a Account) {
		g.accountDay(a, d, emit)
	})
}

// Generate emits abusive telemetry for days [from, to] inclusive.
func (g *Generator) Generate(from, to simtime.Day, emit telemetry.EmitFunc) {
	for d := from; d <= to; d++ {
		g.GenerateDay(d, emit)
	}
}

// accountDay emits one account's observations for one day.
func (g *Generator) accountDay(a Account, d simtime.Day, emit telemetry.EmitFunc) {
	src := rng.New(rng.DeriveN(rng.DeriveN(g.seed, a.Index), uint64(d)+1))
	reqs := 1 + src.Poisson(g.Cfg.RequestsMean)

	var v6 netaddr.Addr
	var v4s []netaddr.Addr
	var net *netmodel.Network

	campaignSeed := rng.DeriveN(g.seed, uint64(a.Campaign)+0x5eed)

	switch a.Exit {
	case ExitHosting:
		net, v6, v4s = g.hostingExit(a, d, campaignSeed)
	case ExitMobile:
		// Attackers favor the carriers with the largest user bases
		// (cheap SIMs, good cover): IN-class carriers get the bulk.
		mi := int(rng.DeriveN(campaignSeed, a.Index+0x3b) % 10)
		if mi < 6 {
			mi = 1 // the IN carrier slot
		} else {
			mi = mi % len(g.mobileNets)
		}
		net = g.mobileNets[mi%len(g.mobileNets)]
		sub := attackerSubBase + rng.DeriveN(campaignSeed, a.Index)%uint64(max(1, g.Cfg.MobileSubsPerCampaign)) + uint64(a.Campaign)<<20
		v6 = net.V6AddrAt(sub, 0, d, int(a.Index%7), false)
		if rng.DeriveN(g.seed, a.Index+0x4e)%100 < 15 {
			v4s = append(v4s, net.V4AddrAt(sub, d, int(a.Index%7)))
		}
	case ExitGateway:
		if len(g.gatewayNets) > 0 {
			net = g.gatewayNets[int(a.Index)%len(g.gatewayNets)]
			sub := attackerSubBase + rng.DeriveN(campaignSeed, a.Index)%uint64(max(1, g.Cfg.GatewaySubsPerCampaign)) + uint64(a.Campaign)<<20
			v6 = net.V6AddrAt(sub, 0, d, 0, false)
			if rng.DeriveN(g.seed, a.Index+0x4d)%100 < 15 {
				v4s = append(v4s, net.V4AddrAt(sub, d, 0))
			}
		}
	case ExitProxy:
		net = g.World.Proxies[int(a.Index)%len(g.World.Proxies)]
		sub := attackerSubBase + a.Index
		v6 = net.V6AddrAt(sub, 0, d, 0, false)
		if rng.DeriveN(g.seed, a.Index+0x4c)%100 < 30 {
			v4s = append(v4s, net.V4AddrAt(sub, d, 0))
		}
	case ExitCGN:
		// Attackers concentrate on the cheapest SIM markets, which are
		// also the carriers with the smallest (mega-CGN) pools — this is
		// what makes day-n IPv4 indicators recur on day n+1 (Fig. 11).
		pick := int(rng.DeriveN(campaignSeed, a.Index+0xc91) % 10)
		switch {
		case pick < 6:
			pick = 0 // Telkom-class mega-CGN
		case pick < 8:
			pick = 1 // Vodafone-class
		default:
			pick = 2 + pick%(len(g.cgnNets)-2)
		}
		net = g.cgnNets[pick%len(g.cgnNets)]
		sub := attackerSubBase + rng.DeriveN(campaignSeed, a.Index)%256 + uint64(a.Campaign)<<20
		// Forced CGN cycling: extra sessions mean extra v4 addresses.
		sessions := 1 + src.Poisson(g.Cfg.V4ExtraSessionMean)
		for s := 0; s < sessions; s++ {
			v4s = append(v4s, net.V4HotAddrAt(sub, d, s))
		}
	}
	if net == nil {
		return
	}

	country := net.Country
	// Split requests: v6-capable exits send most traffic over v6, and
	// hosting exits are effectively v6-only (the occasional account
	// falls back to the host's static IPv4).
	r6 := 0
	if v6.IsValid() {
		r6 = reqs * 7 / 10
		if a.Exit == ExitHosting && rng.DeriveN(g.seed, a.Index+0x4f)%100 >= 8 {
			r6 = reqs
		}
		if len(v4s) == 0 {
			r6 = reqs
		}
	}
	r4 := reqs - r6
	if r6 > 0 {
		emit(g.obs(a, d, v6, net.ASN, country, r6))
	}
	if r4 > 0 && len(v4s) > 0 {
		per := r4 / len(v4s)
		for i, addr := range v4s {
			if !addr.IsValid() {
				continue
			}
			n := per
			if i == 0 {
				n = r4 - per*(len(v4s)-1)
			}
			if n <= 0 {
				n = 1
			}
			emit(g.obs(a, d, addr, net.ASN, country, n))
		}
	}
}

// hostingExit computes the addresses of a hosting-based account-day.
// Hosts churn every HostLifetimeDays; the attacker hops the host's IPv6
// IID every AddrLifetimeDays; IPv4 is the host's static address.
func (g *Generator) hostingExit(a Account, d simtime.Day, campaignSeed uint64) (*netmodel.Network, netaddr.Addr, []netaddr.Addr) {
	hosts := max(1, g.Cfg.HostsPerCampaign)
	slot := rng.DeriveN(campaignSeed, a.Index) % uint64(hosts)
	// Host identity at this slot rotates with a per-slot phase.
	lifetime := uint64(max(1, g.Cfg.HostLifetimeDays))
	hostEpoch := (uint64(d) + rng.DeriveN(campaignSeed, slot)%lifetime) / lifetime
	hostID := rng.DeriveN(rng.DeriveN(campaignSeed, slot+1), hostEpoch)
	net := g.World.Hosting[int(hostID%uint64(len(g.World.Hosting)))]

	// IPv6: each account runs its own interface identifier on the host
	// /64 and keeps it for its lifetime — so addresses are single-
	// account, survivors recur day over day, and the accounts of one
	// host cluster inside its /64 (Figs. 8, 10a, 11).
	iid := rng.DeriveN(rng.DeriveN(hostID, a.Index), 0x11d)
	v6 := net.HostAddrWithIID(hostID, iid)
	v4 := net.V4AddrAt(hostID, d, 0)
	return net, v6, []netaddr.Addr{v4}
}

func (g *Generator) obs(a Account, d simtime.Day, addr netaddr.Addr, asn netmodel.ASN, country string, reqs int) telemetry.Observation {
	o := telemetry.Observation{
		Day:      d,
		UserID:   a.ID,
		Addr:     addr,
		ASN:      asn,
		Requests: uint32(reqs),
		Abusive:  true,
	}
	o.SetCountry(country)
	return o
}
