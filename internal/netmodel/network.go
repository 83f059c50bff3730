// Package netmodel models the access networks through which users reach
// the platform: their autonomous systems, countries, IPv6 deployment, and
// — most importantly — their address assignment behavior.
//
// The paper explains every curve it measures by appeal to assignment
// mechanisms: NAT and CGN on IPv4, privacy-extended SLAAC and temporary
// DHCPv6 on IPv6, per-session /64s on mobile carriers, and mobile
// gateways that funnel enormous user populations through a handful of
// structured-IID addresses. This package implements those mechanisms as
// *pure deterministic functions* of (network, subscriber, device, day,
// session): the same query always yields the same address, so the
// telemetry generator never needs to store per-entity address state.
package netmodel

import (
	"fmt"

	"userv6/internal/netaddr"
	"userv6/internal/rng"
	"userv6/internal/simtime"
)

// ASN is an autonomous system number.
type ASN uint32

// Kind is the archetype of an access network; it determines both typical
// IPv6 deployment and address-assignment behavior.
type Kind uint8

const (
	// Residential is a fixed-line ISP: per-household NAT on IPv4,
	// delegated prefix + SLAAC on IPv6.
	Residential Kind = iota
	// Mobile is a cellular carrier: CGN on IPv4, a fresh /64 per data
	// session on IPv6.
	Mobile
	// Enterprise is a corporate/campus network: static egress on IPv4,
	// static subnets on IPv6 when deployed at all.
	Enterprise
	// Hosting is a server/cloud provider: static per-host IPv4, a /64
	// per host on IPv6 with tenant-controlled IIDs. Attacker exits and
	// VPN endpoints live here.
	Hosting
	// MobileGateway is a carrier that concentrates its users behind a
	// small set of gateway addresses with structured IIDs — the paper's
	// ASN 20057 pattern, and the source of the heavy IPv6 outliers.
	MobileGateway
	// Proxy is a CDN/VPN egress fleet: a small static pool of exits
	// shared by many users on both protocols.
	Proxy
)

// String labels the kind.
func (k Kind) String() string {
	switch k {
	case Residential:
		return "residential"
	case Mobile:
		return "mobile"
	case Enterprise:
		return "enterprise"
	case Hosting:
		return "hosting"
	case MobileGateway:
		return "mobile-gateway"
	case Proxy:
		return "proxy"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// V6Mode selects the IPv6 assignment mechanism.
type V6Mode uint8

const (
	// V6None means the network has not deployed IPv6.
	V6None V6Mode = iota
	// V6SLAAC delegates a prefix per subscriber and rotates interface
	// identifiers per device on a configurable period (privacy
	// extensions / temporary DHCPv6).
	V6SLAAC
	// V6PerSessionSubnet assigns a fresh /64 from the routing block for
	// every data session (mobile carriers).
	V6PerSessionSubnet
	// V6Gateway funnels subscribers through per-gateway /112s whose
	// addresses differ only in the low 16 IID bits.
	V6Gateway
	// V6StaticPool serves sessions from a small static pool of exit
	// addresses (proxies, VPNs).
	V6StaticPool
	// V6StaticHost gives each subscriber (host) a stable address inside
	// its own /64 — hosting providers. The subscriber may additionally
	// hop IIDs at will; see HostAddrWithIID.
	V6StaticHost
)

// V4Mode selects the IPv4 assignment mechanism.
type V4Mode uint8

const (
	// V4None means no IPv4 service (rare; completeness).
	V4None V4Mode = iota
	// V4Household gives each subscriber line one public NAT address,
	// re-drawn from the pool every LeaseDays.
	V4Household
	// V4CGN shares a small pool of public addresses across all
	// subscribers, re-drawn per session.
	V4CGN
	// V4Static pins each subscriber to one pool address indefinitely.
	V4Static
	// V4StaticPool serves sessions from a small static exit pool
	// (proxies).
	V4StaticPool
)

// V6Policy configures IPv6 assignment for a network.
type V6Policy struct {
	Mode V6Mode
	// RoutingBlock is the network's global routing prefix; all its IPv6
	// addresses fall inside it.
	RoutingBlock netaddr.Prefix
	// DelegatedLen is the per-subscriber delegation length for V6SLAAC
	// (typically 56 or 64).
	DelegatedLen int
	// IIDRotationDays is the device IID rotation period for V6SLAAC;
	// 0 means static IIDs.
	IIDRotationDays int
	// DelegationRotationDays re-draws the subscriber's delegated prefix
	// on this period; 0 means a stable delegation.
	DelegationRotationDays int
	// SubnetLifetimeDays is how long a V6PerSessionSubnet subscriber
	// keeps one /64 before the carrier moves it (default 5). Interface
	// identifiers still change per session within the /64.
	SubnetLifetimeDays int
	// Gateways is the number of /112 gateways for V6Gateway.
	Gateways int
	// SlotsPerGateway is the number of busy egress addresses per
	// gateway for V6Gateway.
	SlotsPerGateway int
	// PoolSize is the number of exit addresses for V6StaticPool.
	PoolSize int
}

// V4Policy configures IPv4 assignment for a network.
type V4Policy struct {
	Mode V4Mode
	// Pool is the public address block addresses are drawn from.
	Pool netaddr.Prefix
	// LeaseDays is the re-draw period for V4Household.
	LeaseDays int
	// StaticShare is the fraction of V4Household lines with a de-facto
	// static address (lease never rotates).
	StaticShare float64
	// PoolSize caps the number of distinct public addresses for V4CGN,
	// V4Static and V4StaticPool.
	PoolSize int
	// HotShare is the fraction of V4CGN subscribers whose binding churns
	// per session ("hot" CGN paths); the rest re-bind daily.
	HotShare float64
}

// Network is one access network: an ASN in a country with concrete
// assignment policies. Build networks through a World, which allocates
// non-overlapping address blocks.
type Network struct {
	// ID is unique within a World.
	ID uint32
	// ASN identifies the autonomous system (may be shared by networks
	// of the same operator).
	ASN ASN
	// Name is the operator name, for reports.
	Name string
	// Country is the ISO-style code of the network's user base.
	Country string
	// Kind is the archetype.
	Kind Kind
	// V6 and V4 are the assignment policies.
	V6 V6Policy
	V4 V4Policy
	// V6SubscriberShare is the fraction of subscribers with working
	// IPv6 (CPE/handset capability); subscribers outside it behave as
	// v4-only even on a v6-deploying network. 0 is treated as 1.
	V6SubscriberShare float64

	seed uint64
}

// SubscriberHasV6 reports whether a specific subscriber gets IPv6
// service, combining network deployment with per-subscriber capability.
func (n *Network) SubscriberHasV6(sub uint64) bool {
	if n.V6.Mode == V6None {
		return false
	}
	share := n.V6SubscriberShare
	if share <= 0 || share >= 1 {
		return true
	}
	return float64(n.hash(sub, 30)%(1<<20))/(1<<20) < share
}

// HasV6 reports whether the network assigns IPv6 addresses.
func (n *Network) HasV6() bool { return n.V6.Mode != V6None }

// HasV4 reports whether the network assigns IPv4 addresses.
func (n *Network) HasV4() bool { return n.V4.Mode != V4None }

// hash mixes the network seed with a stream of values into a uniform
// 64-bit output; the deterministic assignment core.
func (n *Network) hash(vals ...uint64) uint64 {
	h := n.seed
	for _, v := range vals {
		h = rng.DeriveN(h, v)
	}
	return h
}

// V6AddrAt returns the IPv6 address presented by (subscriber, device) on
// the given day and session, or the zero Addr when the network has no
// IPv6. staticIID forces a stable, EUI-64-style identifier (the ~2.5% of
// devices that embed their MAC).
func (n *Network) V6AddrAt(sub, device uint64, day simtime.Day, session int, staticIID bool) netaddr.Addr {
	if !n.SubscriberHasV6(sub) {
		return netaddr.Addr{}
	}
	switch n.V6.Mode {
	case V6SLAAC:
		lan := n.subscriberLAN(sub, day)
		var iid uint64
		switch {
		case staticIID:
			// The embedded MAC belongs to the device, not the network:
			// the same device presents the same EUI-64 identifier on
			// every network it roams to (callers encode the device
			// identity in the device argument).
			iid = netaddr.EUI64FromMAC(rng.DeriveN(device, 0xde71ce))
		case n.V6.IIDRotationDays > 0:
			// Per-device rotation period: most devices regenerate their
			// temporary address daily (RFC 4941 default), a minority
			// keep one for several days — the mixture behind the
			// paper's daily-vs-weekly address count ratio (Fig. 2/5).
			rot := uint64(n.V6.IIDRotationDays)
			switch n.hash(sub, device, 16) % 100 {
			case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14:
				rot *= 7
			case 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39:
				rot *= 3
			}
			phase := n.hash(sub, device, 1) % rot
			epoch := (uint64(day) + phase) / rot
			iid = n.hash(sub, device, 2, epoch)
		default:
			iid = n.hash(sub, device, 3)
		}
		return lan.Addr().WithIID(iid)

	case V6PerSessionSubnet:
		// The subscriber keeps one /64 for SubnetLifetimeDays (PDP
		// contexts are sticky), then the PGW moves them. A minority of
		// subscribers sit on fast-churn paths (frequent reattachment)
		// and move /64s almost daily — the heterogeneity behind the
		// short-lived end of the (user, /64) lifespan curve (Fig. 6).
		life := uint64(5)
		if n.V6.SubnetLifetimeDays > 0 {
			life = uint64(n.V6.SubnetLifetimeDays)
		}
		if n.hash(sub, 19)%100 < 20 {
			life = 1
		}
		phase := n.hash(sub, 15) % life
		epoch := (uint64(day) + phase) / life
		idx := n.hash(sub, epoch, 4)
		if n.V6.PoolSize > 0 {
			// Finite PGW pools are regional: the subscriber is pinned to
			// one regional gateway /48, and draws /64s from that
			// gateway's slice of the pool — a roaming subscriber's /64s
			// aggregate within the carrier prefix, and pool /64s recycle
			// across subscribers (Figs. 4/9).
			perRegion := uint64(n.V6.PoolSize) / 16
			if perRegion < 48 {
				perRegion = 48
			}
			regions := uint64(n.V6.PoolSize) / perRegion
			if regions < 1 {
				regions = 1
			}
			region := n.hash(sub, 17) % regions
			slot := rng.DeriveN(idx%perRegion, 0x64) & 0xffff
			idx = region<<16 | slot
		}
		sn := n.V6.RoutingBlock.Subnet(64, idx)
		if staticIID {
			// Legacy handsets derive cellular IIDs from the MAC too.
			return sn.Addr().WithIID(netaddr.EUI64FromMAC(rng.DeriveN(device, 0xde71ce)))
		}
		// Temporary addresses regenerate on roughly every other
		// reconnect: daily rotation plus intra-day churn (Fig. 2).
		return sn.Addr().WithIID(n.hash(sub, uint64(day), uint64(session+1)/2, 5))

	case V6Gateway:
		g := n.hash(sub, 6) % uint64(max(1, n.V6.Gateways))
		// Each gateway owns a /64; its egress addresses use only the low
		// 16 IID bits, so they all share one /112 and classify as
		// structured IIDs (the paper's ASN 20057 signature). Slot 0 maps
		// to 1 to avoid the all-zero anycast address.
		gw := n.V6.RoutingBlock.Subnet(64, g)
		slot := n.hash(sub, uint64(day), 7) % uint64(max(1, n.V6.SlotsPerGateway))
		return gw.Addr().WithIID(slot&0xffff + 1)

	case V6StaticPool:
		// Each exit address sits in its own /64 (egress hosts are
		// distinct machines scattered through the provider block).
		idx := n.hash(sub, uint64(day), uint64(session), 8) % uint64(max(1, n.V6.PoolSize))
		sn := n.V6.RoutingBlock.Subnet(64, rng.DeriveN(idx, 0xe))
		return sn.Addr().WithIID(n.hash(idx, 9))

	case V6StaticHost:
		return n.HostAddrWithIID(sub, n.hash(sub, 10))

	default:
		return netaddr.Addr{}
	}
}

// subscriberLAN returns the first /64 of the subscriber's current
// delegated prefix.
func (n *Network) subscriberLAN(sub uint64, day simtime.Day) netaddr.Prefix {
	epoch := uint64(0)
	if r := n.V6.DelegationRotationDays; r > 0 {
		phase := n.hash(sub, 11) % uint64(r)
		epoch = (uint64(day) + phase) / uint64(r)
	}
	delegLen := n.V6.DelegatedLen
	if delegLen <= 0 {
		delegLen = 56
	}
	// Subscribers are pooled into regional /44 aggregates of the ISP's
	// routing block; delegation re-draws stay within the region. This
	// is the structure behind the paper's observation that a user's /64s
	// aggregate within prefixes shorter than /48 (the global routing
	// prefix; Figures 4 and 6).
	region := n.V6.RoutingBlock
	if region.Bits() < 44 {
		// 256 shared regional aggregates per ISP: delegations re-draw
		// within the subscriber's region, and regions hold many
		// subscribers (cross-user aggregation at /44, Figs. 4/9).
		region = region.Subnet(44, n.hash(sub, 14)%256)
	}
	deleg := region.Subnet(delegLen, n.hash(sub, 12, epoch))
	return deleg.Subnet(64, 0)
}

// SubscriberDelegation returns the subscriber's delegated prefix on the
// given day (V6SLAAC networks only; zero Prefix otherwise). Exposed for
// analyses that reason about delegation-level aggregation.
func (n *Network) SubscriberDelegation(sub uint64, day simtime.Day) netaddr.Prefix {
	if n.V6.Mode != V6SLAAC {
		return netaddr.Prefix{}
	}
	lan := n.subscriberLAN(sub, day)
	delegLen := n.V6.DelegatedLen
	if delegLen <= 0 {
		delegLen = 56
	}
	return netaddr.PrefixFrom(lan.Addr(), delegLen)
}

// HostAddrWithIID returns the address of host sub with a caller-chosen
// interface identifier — hosting tenants (and attackers renting them)
// control the low 64 bits of their /64 freely.
func (n *Network) HostAddrWithIID(sub, iid uint64) netaddr.Addr {
	if n.V6.Mode != V6StaticHost {
		return netaddr.Addr{}
	}
	return n.HostSubnet(sub).Addr().WithIID(iid)
}

// HostSubnet returns the /64 owned by host sub on a hosting network.
func (n *Network) HostSubnet(sub uint64) netaddr.Prefix {
	if n.V6.Mode != V6StaticHost {
		return netaddr.Prefix{}
	}
	// Customers are packed into /56 allocation regions (24 per
	// provider), so tenants of one provider cluster at /56 — which is
	// where abusive hosting infrastructure aggregates (Fig. 10a).
	region := n.hash(sub, 18) % 24
	return n.V6.RoutingBlock.Subnet(56, region).Subnet(64, n.hash(sub, 13))
}

// V4AddrAt returns the IPv4 address presented by subscriber sub on the
// given day and session, or the zero Addr when the network has no IPv4.
func (n *Network) V4AddrAt(sub uint64, day simtime.Day, session int) netaddr.Addr {
	switch n.V4.Mode {
	case V4Household:
		lease := max(1, n.V4.LeaseDays)
		epoch := uint64(0)
		// A share of lines is effectively static (no lease rotation).
		if float64(n.hash(sub, 26)%(1<<20))/(1<<20) >= n.V4.StaticShare {
			phase := n.hash(sub, 20) % uint64(lease)
			epoch = (uint64(day) + phase) / uint64(lease)
		}
		return n.poolAddr(n.hash(sub, 21, epoch))

	case V4CGN:
		// Hot subscribers re-bind per session; the rest re-bind daily.
		var idx uint64
		if float64(n.hash(sub, 27)%(1<<20))/(1<<20) < n.V4.HotShare {
			idx = n.hash(sub, uint64(day), uint64(session), 22)
		} else {
			idx = n.hash(sub, uint64(day), 22)
		}
		return n.poolAddr(idx % uint64(max(1, n.V4.PoolSize)))

	case V4Static:
		return n.poolAddr(n.hash(sub, 23) % uint64(max(1, n.V4.PoolSize)))

	case V4StaticPool:
		idx := n.hash(sub, uint64(day), uint64(session), 24) % uint64(max(1, n.V4.PoolSize))
		return n.poolAddr(idx)

	default:
		return netaddr.Addr{}
	}
}

// V4HotAddrAt is V4AddrAt with per-session binding forced for CGN
// networks — attackers deliberately re-connect to cycle addresses.
func (n *Network) V4HotAddrAt(sub uint64, day simtime.Day, session int) netaddr.Addr {
	if n.V4.Mode != V4CGN {
		return n.V4AddrAt(sub, day, session)
	}
	idx := n.hash(sub, uint64(day), uint64(session), 22)
	return n.poolAddr(idx % uint64(max(1, n.V4.PoolSize)))
}

// poolAddr maps an index into the network's IPv4 pool.
func (n *Network) poolAddr(idx uint64) netaddr.Addr {
	return n.V4.Pool.Subnet(32, idx).Addr()
}
