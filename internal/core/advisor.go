package core

import (
	"math"

	"userv6/internal/stats"
)

// Equivalence quantifies how closely a candidate IPv6 prefix length's
// population distribution matches the IPv4 address distribution, using
// the Kolmogorov-Smirnov distance between the integer CDFs. It backs the
// paper's findings that IPv4 addresses look like /48s for user
// populations (§6.2.1) and like /56s for abusive-account populations
// (§6.2.2).
type Equivalence struct {
	Length   int
	Distance float64
}

// ClosestToV4 returns, for each candidate histogram, the KS distance to
// the IPv4 reference, and identifies the closest candidate. maxV bounds
// the CDF comparison domain (population counts above it are rare tails).
func ClosestToV4(v4 *stats.IntHist, candidates map[int]*stats.IntHist, maxV int) (best Equivalence, all []Equivalence) {
	best.Distance = math.Inf(1)
	for length, h := range candidates {
		d := ksDistance(v4, h, maxV)
		e := Equivalence{Length: length, Distance: d}
		all = append(all, e)
		if d < best.Distance || (d == best.Distance && length > best.Length) {
			best = e
		}
	}
	return best, all
}

// ksDistance returns the maximum absolute CDF gap over [0, maxV].
func ksDistance(a, b *stats.IntHist, maxV int) float64 {
	worst := 0.0
	for v := 0; v <= maxV; v++ {
		ca, cb := a.CDFAt(v), b.CDFAt(v)
		if math.IsNaN(ca) || math.IsNaN(cb) {
			return math.NaN()
		}
		if d := math.Abs(ca - cb); d > worst {
			worst = d
		}
	}
	return worst
}

// Advice is the §7.2 policy guidance derived from measured behavior.
type Advice struct {
	// BlocklistGranularity is the recommended IPv6 actioning length
	// (128 or 64) at the operator's FPR tolerance.
	BlocklistGranularity int
	// BlocklistTPR is the recall achieved at that granularity within
	// the tolerance, and BlocklistFPR the FPR tolerance itself.
	BlocklistTPR, BlocklistFPR float64
	// BlocklistTTLDays is the recommended blocklist entry lifetime,
	// derived from how fast abusive IPv6 presence decays.
	BlocklistTTLDays int
	// RateLimitUsersPerV6Addr is the benign-user budget per IPv6
	// address implied by the user population quantiles: thresholds can
	// assume this many legitimate users per address.
	RateLimitUsersPerV6Addr int
	// RateLimitV4EquivalentLength is the IPv6 prefix length whose user
	// population distribution best matches IPv4 addresses — existing
	// IPv4 rate-limit logic ports to this length.
	RateLimitV4EquivalentLength int
	// BlocklistV4EquivalentLength is the IPv6 prefix length whose
	// abusive-account distribution best matches IPv4 addresses —
	// existing IPv4 blocklist policy ports to this length.
	BlocklistV4EquivalentLength int
	// V6BeatsV4BelowFPR reports whether IPv6 actioning dominates IPv4
	// at the probed low-FPR operating points.
	V6BeatsV4BelowFPR bool
	// ThreatIntelDecay is the one-day relative decay of actioning
	// recall (1 - TPR(day n+1)/prefixes actioned): higher means shared
	// IPv6 indicators go stale faster.
	ThreatIntelDecay float64
}

// AdvisorInputs collects the measurements the advisor reasons over.
type AdvisorInputs struct {
	// ROC curves per granularity from the Actioning simulator.
	ROC128, ROC64, ROCV4 *stats.ROC
	// FPRTolerance is the operator's acceptable false-positive rate.
	FPRTolerance float64
	// UsersPerV6Addr is Figure 7's IPv6 users-per-address histogram;
	// UsersPerV4Addr the IPv4 one.
	UsersPerV6Addr, UsersPerV4Addr *stats.IntHist
	// UsersPerV6Prefix maps prefix length to users-per-prefix
	// histograms (Figure 9).
	UsersPerV6Prefix map[int]*stats.IntHist
	// AbusivePerV6Prefix maps prefix length to abusive-accounts-per-
	// prefix histograms (Figure 10a); AbusivePerV4Addr is the IPv4
	// reference.
	AbusivePerV6Prefix map[int]*stats.IntHist
	AbusivePerV4Addr   *stats.IntHist
	// V6AddrFreshShare is the fraction of (user, v6 address) pairs aged
	// under one day (Figure 5), driving the blocklist TTL.
	V6AddrFreshShare float64
}

// Advise derives the §7.2 policy guidance.
func Advise(in AdvisorInputs) Advice {
	var a Advice

	// Blocklisting granularity: pick /64 when it achieves higher recall
	// than /128 within the FPR tolerance (the paper: at practical FPR
	// like 0.1%, /64 wins; at very strict tolerances, /128 wins).
	tpr128, ok128 := in.ROC128.TPRAtFPR(in.FPRTolerance)
	tpr64, ok64 := in.ROC64.TPRAtFPR(in.FPRTolerance)
	switch {
	case ok64 && (!ok128 || tpr64 > tpr128):
		a.BlocklistGranularity = 64
		a.BlocklistTPR = tpr64
	default:
		a.BlocklistGranularity = 128
		a.BlocklistTPR = tpr128
	}
	a.BlocklistFPR = in.FPRTolerance

	// TTL: IPv6 addresses are overwhelmingly fresh day-to-day, so
	// stale entries stop matching attackers almost immediately. Scale
	// a short TTL by the observed persistence (1 - fresh share).
	persistence := 1 - in.V6AddrFreshShare
	switch {
	case persistence < 0.10:
		a.BlocklistTTLDays = 1
	case persistence < 0.25:
		a.BlocklistTTLDays = 3
	default:
		a.BlocklistTTLDays = 7
	}

	// Rate limiting: budget legitimate users per IPv6 address at the
	// 99.9th percentile of the benign distribution (the paper: <0.2% of
	// v6 addresses exceed 3 users/day, so tight thresholds are safe).
	if in.UsersPerV6Addr != nil && in.UsersPerV6Addr.N() > 0 {
		a.RateLimitUsersPerV6Addr = in.UsersPerV6Addr.QuantileInt(0.999)
	}

	// Equivalence mappings.
	if in.UsersPerV4Addr != nil && len(in.UsersPerV6Prefix) > 0 {
		best, _ := ClosestToV4(in.UsersPerV4Addr, in.UsersPerV6Prefix, 32)
		a.RateLimitV4EquivalentLength = best.Length
	}
	if in.AbusivePerV4Addr != nil && len(in.AbusivePerV6Prefix) > 0 {
		best, _ := ClosestToV4(in.AbusivePerV4Addr, in.AbusivePerV6Prefix, 16)
		a.BlocklistV4EquivalentLength = best.Length
	}

	// Low-FPR dominance (the paper: below 1% FPR, v6 curves sit above
	// IPv4's).
	probes := []float64{0.0001, 0.001, 0.01}
	a.V6BeatsV4BelowFPR = in.ROC64.DominatesBelow(in.ROCV4, probes) ||
		in.ROC128.DominatesBelow(in.ROCV4, probes)

	// Threat intel decay: share of abusive activity NOT caught next day
	// even at the most aggressive threshold.
	if t, ok := in.ROC128.TPRAtFPR(1); ok {
		a.ThreatIntelDecay = 1 - t
	}
	return a
}
