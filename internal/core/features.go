package core

import (
	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/telemetry"
)

// FeatureVector is a per-entity IP-behavior feature set of the kind the
// paper's §7.2 recommends for abuse classifiers, with IPv6-aware members
// (prefix spread, structured-IID exposure, infrastructure share) that
// IPv4-era features miss.
type FeatureVector struct {
	// V4Addrs / V6Addrs are distinct addresses per family.
	V4Addrs, V6Addrs int
	// V6Prefixes64 is the count of distinct /64s.
	V6Prefixes64 int
	// V6IIDSpread is V6Addrs / V6Prefixes64 (IID churn inside subnets).
	// NOTE: high spread is NORMAL benign behavior (privacy rotation) —
	// the paper's warning against porting IPv4 churn heuristics.
	V6IIDSpread float64
	// Observations and Requests are activity volumes.
	Observations int
	Requests     uint64
	// InfraShare is the share of observations from hosting/proxy ASNs.
	InfraShare float64
	// StructuredV6 counts structured-IID (gateway) addresses used.
	StructuredV6 int
	// DualStack marks entities seen on both families.
	DualStack bool
	// ActiveDays is the number of distinct days with activity.
	ActiveDays int
}

// FeatureExtractor accumulates per-entity feature vectors from a
// telemetry stream.
type FeatureExtractor struct {
	infra map[netmodel.ASN]bool
	ents  map[uint64]*featureAcc
}

type featureAcc struct {
	v4, v6     map[netaddr.Addr]struct{}
	p64        map[netaddr.Prefix]struct{}
	days       map[int16]struct{}
	obs        int
	reqs       uint64
	infraObs   int
	structured int
}

// NewFeatureExtractor returns an extractor treating the given ASNs as
// attacker-friendly infrastructure (hosting/proxy space).
func NewFeatureExtractor(infraASNs map[netmodel.ASN]bool) *FeatureExtractor {
	return &FeatureExtractor{infra: infraASNs, ents: make(map[uint64]*featureAcc)}
}

// Observe feeds one observation.
func (fe *FeatureExtractor) Observe(o telemetry.Observation) {
	if !o.Addr.IsValid() {
		return
	}
	acc := fe.ents[o.UserID]
	if acc == nil {
		acc = &featureAcc{
			v4:   make(map[netaddr.Addr]struct{}),
			v6:   make(map[netaddr.Addr]struct{}),
			p64:  make(map[netaddr.Prefix]struct{}),
			days: make(map[int16]struct{}),
		}
		fe.ents[o.UserID] = acc
	}
	acc.obs++
	acc.reqs += uint64(o.Requests)
	acc.days[int16(o.Day)] = struct{}{}
	if fe.infra[o.ASN] {
		acc.infraObs++
	}
	if o.Addr.Is4() {
		acc.v4[o.Addr] = struct{}{}
		return
	}
	acc.v6[o.Addr] = struct{}{}
	acc.p64[netaddr.PrefixFrom(o.Addr, 64)] = struct{}{}
	if netaddr.IsStructuredIID(o.Addr) {
		acc.structured++
	}
}

// Vector returns the feature vector for one entity and whether it was
// observed.
func (fe *FeatureExtractor) Vector(uid uint64) (FeatureVector, bool) {
	acc := fe.ents[uid]
	if acc == nil {
		return FeatureVector{}, false
	}
	v := FeatureVector{
		V4Addrs:      len(acc.v4),
		V6Addrs:      len(acc.v6),
		V6Prefixes64: len(acc.p64),
		Observations: acc.obs,
		Requests:     acc.reqs,
		StructuredV6: acc.structured,
		DualStack:    len(acc.v4) > 0 && len(acc.v6) > 0,
		ActiveDays:   len(acc.days),
	}
	if len(acc.p64) > 0 {
		v.V6IIDSpread = float64(len(acc.v6)) / float64(len(acc.p64))
	}
	if acc.obs > 0 {
		v.InfraShare = float64(acc.infraObs) / float64(acc.obs)
	}
	return v, true
}

// ForEach visits every entity's features.
func (fe *FeatureExtractor) ForEach(fn func(uid uint64, v FeatureVector)) {
	for uid := range fe.ents {
		if v, ok := fe.Vector(uid); ok {
			fn(uid, v)
		}
	}
}

// AbuseScore is a transparent hand-weighted baseline scorer over the
// IPv6-aware features. It exists as a documented reference point, not a
// trained model: infrastructure share dominates, young/barely-active
// entities and v4-only CGN churners add suspicion, and — deliberately —
// IID spread contributes nothing (it is benign privacy rotation).
func (v FeatureVector) AbuseScore() float64 {
	s := 0.0
	if v.InfraShare > 0.5 {
		s += 2
	}
	if v.Observations <= 3 {
		s += 0.75
	}
	if v.V4Addrs >= 3 && v.V6Addrs == 0 {
		s += 0.75
	}
	return s
}
