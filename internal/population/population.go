// Package population synthesizes the benign user base: who lives where,
// which access networks each user reaches the platform through (home,
// mobile, work, VPN), how many devices they carry, and how active they
// are. The synthesized population is the generative counterpart of the
// paper's "user random sample" — each simulated user stands for one
// sampled user of a much larger platform.
package population

import (
	"fmt"

	"userv6/internal/netmodel"
	"userv6/internal/rng"
)

// ContextKind classifies a user's access contexts.
type ContextKind uint8

const (
	// Home is the user's residential line.
	Home ContextKind = iota
	// MobileCtx is the user's cellular connection.
	MobileCtx
	// Work is the user's workplace network.
	Work
	// VPN routes through a proxy/VPN provider.
	VPN
)

// String labels the context kind.
func (k ContextKind) String() string {
	switch k {
	case Home:
		return "home"
	case MobileCtx:
		return "mobile"
	case Work:
		return "work"
	case VPN:
		return "vpn"
	default:
		return fmt.Sprintf("context(%d)", uint8(k))
	}
}

// Context is one access context of a user.
type Context struct {
	Kind ContextKind
	Net  *netmodel.Network
	// Sub is the subscriber identity on Net: the household line, the
	// mobile subscription, the office site, or the VPN account.
	Sub uint64
	// Weight is the context's share of the user's pre-pandemic weekday
	// activity. Weights sum to 1 per user.
	Weight float64
}

// User is one synthesized platform user.
type User struct {
	ID      uint64
	Country string
	// Devices is how many distinct devices the user owns (>= 1).
	Devices int
	// StaticIID marks users whose devices embed a stable EUI-64 MAC
	// identifier instead of rotating privacy IIDs (§4.4: ~2.5%).
	StaticIID bool
	// MACRandomizing marks StaticIID users whose OS randomizes the MAC,
	// so the embedded identifier still changes over time (§4.4: the
	// ~17% of EUI-64 users that do not reuse IIDs).
	MACRandomizing bool
	// Activity scales the user's request volume (lognormal around 1).
	Activity float64
	// DeviceBase is the user's globally unique device-identity base;
	// household members occasionally share it (shared family devices),
	// which is what puts a second user on the same IPv6 address.
	DeviceBase uint64
	// WorkOnly marks users active only from work before lockdowns.
	WorkOnly bool
	Contexts []Context
}

// Context returns the user's context of the given kind, or nil.
func (u *User) Context(kind ContextKind) *Context {
	for i := range u.Contexts {
		if u.Contexts[i].Kind == kind {
			return &u.Contexts[i]
		}
	}
	return nil
}

// Config controls population synthesis.
type Config struct {
	// Seed drives all randomness; Users is the population size.
	Seed  uint64
	Users int
	// StaticIIDShare is the fraction of users with MAC-embedding
	// devices (paper §4.4: 0.025).
	StaticIIDShare float64
	// MACRandomizingShare is the fraction of StaticIID users whose OS
	// randomizes the MAC per network, giving dynamic EUI-64 IIDs
	// (paper §4.4: 17% of EUI-64 users show changing IIDs).
	MACRandomizingShare float64
	// VPNShare is the fraction of users who route some traffic through
	// proxy/VPN providers.
	VPNShare float64
	// TransitionShare is the fraction of users reaching IPv6 through
	// 6to4/Teredo transition relays (paper §4.4: < 0.01% of v6 users).
	TransitionShare float64
	// HomeShare and MobileShare are the probabilities a user has the
	// respective context at all.
	HomeShare, MobileShare float64
	// MeanHouseholdExtra is the mean number of additional members per
	// household beyond the first (household size ≈ 1 + Poisson(this)).
	MeanHouseholdExtra float64
	// WorkSiteSize is the mean number of users per enterprise site.
	WorkSiteSize int
}

// DefaultConfig returns the calibrated defaults for a 200k-user run.
func DefaultConfig() Config {
	return Config{
		Seed:                1,
		Users:               200_000,
		StaticIIDShare:      0.028,
		MACRandomizingShare: 0.12,
		VPNShare:            0.03,
		TransitionShare:     0.00006,
		HomeShare:           0.90,
		MobileShare:         0.82,
		MeanHouseholdExtra:  0.9,
		WorkSiteSize:        40,
	}
}

// Population is the synthesized user base.
type Population struct {
	Users []User
	World *netmodel.World
	cfg   Config
}

// Config returns the configuration the population was built with.
func (p *Population) Config() Config { return p.cfg }

// household tracks an open household accepting further members.
type household struct {
	sub      uint64
	capacity int
	// deviceBase is the household's shared-device identity pool.
	deviceBase uint64
}

// Synthesize builds the population deterministically.
func Synthesize(w *netmodel.World, cfg Config) *Population {
	if cfg.Users <= 0 {
		cfg.Users = 1
	}
	src := rng.New(rng.Derive(cfg.Seed, "population"))
	p := &Population{World: w, cfg: cfg}
	p.Users = make([]User, cfg.Users)

	countries := w.Countries
	weights := make([]float64, len(countries))
	total := 0.0
	for i, c := range countries {
		weights[i] = c.Country.Weight
		total += c.Country.Weight
	}

	// Expected users per country determine enterprise site counts.
	siteCounts := make([]int, len(countries))
	for i, c := range countries {
		exp := float64(cfg.Users) * c.Country.Weight / total
		workUsers := exp * c.Country.WorkW * 2.2
		siteCounts[i] = int(workUsers)/max(1, cfg.WorkSiteSize) + 1
	}

	// Open households per (country, ISP slot 0=v6, 1=v4, 2=legacy).
	households := make(map[[2]int]*household)
	nextHousehold := make(map[[2]int]uint64)

	for i := range p.Users {
		u := &p.Users[i]
		u.ID = uint64(i)
		ci := src.WeightedChoice(weights)
		cn := countries[ci]
		c := cn.Country
		u.Country = c.Code
		u.Devices = 1 + src.Geometric(0.45)
		if u.Devices > 5 {
			u.Devices = 5
		}
		u.StaticIID = src.Bool(cfg.StaticIIDShare)
		u.DeviceBase = (u.ID + 1) << 20
		u.MACRandomizing = u.StaticIID && src.Bool(cfg.MACRandomizingShare)
		u.Activity = src.LogNormal(0, 0.75)
		u.WorkOnly = src.Bool(c.WorkOnly)

		// Context weights: jittered country means, renormalized below.
		hw := c.HomeW * (0.5 + src.Float64())
		mw := c.MobW * (0.5 + src.Float64())
		ww := c.WorkW * (0.5 + src.Float64())

		// Home context with household sharing.
		if src.Bool(cfg.HomeShare) {
			slot := 1 // v4-only ISP
			var net *netmodel.Network
			switch {
			case src.Bool(c.LegacyShare):
				slot, net = 2, cn.ResLegacy
			case src.Bool(resV6Prob(c, u.WorkOnly)):
				slot, net = 0, cn.ResV6
			default:
				net = cn.ResV4
			}
			key := [2]int{ci, slot}
			hh := households[key]
			if hh == nil || hh.capacity <= 0 {
				sub := nextHousehold[key]
				nextHousehold[key] = sub + 1
				hh = &household{sub: sub, capacity: 1 + src.Poisson(cfg.MeanHouseholdExtra), deviceBase: u.DeviceBase}
				households[key] = hh
			} else if src.Bool(0.3) && !u.StaticIID {
				// Shared family device: this member reuses the
				// household's device identities, so their home IPv6
				// addresses coincide with the first member's.
				u.DeviceBase = hh.deviceBase
			}
			hh.capacity--
			u.Contexts = append(u.Contexts, Context{Kind: Home, Net: net, Sub: hh.sub, Weight: hw})
		}

		// Mobile context: personal subscription.
		if src.Bool(cfg.MobileShare) {
			var net *netmodel.Network
			if src.Bool(c.MobV6) {
				net = cn.MobV6[src.WeightedChoice(cn.MobV6W)]
			} else {
				net = cn.MobV4
			}
			u.Contexts = append(u.Contexts, Context{Kind: MobileCtx, Net: net, Sub: u.ID, Weight: mw})
		}

		// Work context: shared enterprise site.
		hasWork := c.WorkW > 0 && (u.WorkOnly || src.Bool(min(1, c.WorkW*2.2)))
		if hasWork {
			net := cn.EntV4
			if src.Bool(c.EntV6) {
				net = cn.EntV6
			}
			site := src.Uint64n(uint64(siteCounts[ci]))
			u.Contexts = append(u.Contexts, Context{Kind: Work, Net: net, Sub: site, Weight: ww})
		}

		// Transition-relay users: their home line tunnels v6 through
		// 6to4 or Teredo instead of native service.
		if src.Bool(cfg.TransitionShare) && len(w.Transition) > 0 {
			net := w.Transition[src.Intn(len(w.Transition))]
			u.Contexts = append(u.Contexts, Context{Kind: Home, Net: net, Sub: u.ID, Weight: hw})
		}

		// VPN context: occasional proxy egress.
		if src.Bool(cfg.VPNShare) && len(w.Proxies) > 0 {
			net := w.Proxies[src.Intn(len(w.Proxies))]
			u.Contexts = append(u.Contexts, Context{Kind: VPN, Net: net, Sub: u.ID, Weight: 0.08})
		}

		// Guarantee at least one context: fall back to mobile.
		if len(u.Contexts) == 0 {
			u.Contexts = append(u.Contexts, Context{Kind: MobileCtx, Net: cn.MobV4, Sub: u.ID, Weight: 1})
		}

		// WorkOnly users concentrate their weight on work (when they
		// have it); their other contexts exist but see ~no platform use
		// until lockdown shifts them home.
		if u.WorkOnly {
			for j := range u.Contexts {
				if u.Contexts[j].Kind == Work {
					u.Contexts[j].Weight = 1
				} else {
					u.Contexts[j].Weight = 0.02
				}
			}
		}
		normalizeWeights(u.Contexts)
	}
	return p
}

// normalizeWeights scales context weights to sum to 1.
func normalizeWeights(cs []Context) {
	sum := 0.0
	for i := range cs {
		sum += cs[i].Weight
	}
	if sum <= 0 {
		for i := range cs {
			cs[i].Weight = 1 / float64(len(cs))
		}
		return
	}
	for i := range cs {
		cs[i].Weight /= sum
	}
}

// resV6Prob is the probability a user's home line is on the IPv6
// residential ISP. Work-only users skew toward the incumbent telco
// (office-worker demographic), which is what makes lockdown shift their
// country's IPv6 ratio upward (the paper's Germany effect).
func resV6Prob(c netmodel.Country, workOnly bool) float64 {
	p := c.ResV6
	if workOnly {
		p = min(1, p*1.4)
	}
	return p
}
