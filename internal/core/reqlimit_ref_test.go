package core

// The reference for RequestLoad: RequestRateLimit, the streaming
// request limiter it replaced, kept verbatim. It admits each
// observation's requests against the budget its prefix-day has left,
// so its tallies depend on feed order; fed a day's benign observations
// before its abusive ones, as the scraper experiment fed it, it gives
// the tallies RequestLoad.Limit replays.

import (
	"userv6/internal/netaddr"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// RequestRateLimit caps *requests* (not entities) per prefix per day —
// the logged-out safeguard the paper's §7.2 rate-limiting discussion
// ends on: it must work against scrapers that present no account at
// all, and its thresholds can be tight on IPv6 because so few
// legitimate users share an address.
//
// Requests beyond the cap are throttled. The simulator tallies admitted
// and throttled requests separately for benign and abusive traffic.
type RequestRateLimit struct {
	Family netaddr.Family
	Length int
	// CapPerDay is the request budget per prefix-day.
	CapPerDay uint64

	used map[dayPrefixKey]uint64
	// Tallies.
	BenignAdmitted, BenignThrottled   uint64
	AbusiveAdmitted, AbusiveThrottled uint64
}

// dayPrefixKey identifies one prefix on one day.
type dayPrefixKey struct {
	day simtime.Day
	pfx netaddr.Prefix
}

// NewRequestRateLimit returns a limiter at one granularity and budget.
func NewRequestRateLimit(fam netaddr.Family, length int, capPerDay uint64) *RequestRateLimit {
	if capPerDay < 1 {
		capPerDay = 1
	}
	return &RequestRateLimit{
		Family:    fam,
		Length:    length,
		CapPerDay: capPerDay,
		used:      make(map[dayPrefixKey]uint64),
	}
}

// Observe feeds one observation, splitting its requests into admitted
// and throttled against the prefix-day budget.
func (r *RequestRateLimit) Observe(o telemetry.Observation) {
	if o.Addr.Family() != r.Family || r.Length > o.Addr.Bits() {
		return
	}
	dk := dayPrefixKey{day: o.Day, pfx: netaddr.PrefixFrom(o.Addr, r.Length)}
	used := r.used[dk]
	admit := uint64(0)
	if used < r.CapPerDay {
		admit = r.CapPerDay - used
		if admit > uint64(o.Requests) {
			admit = uint64(o.Requests)
		}
	}
	throttled := uint64(o.Requests) - admit
	r.used[dk] = used + admit
	if o.Abusive {
		r.AbusiveAdmitted += admit
		r.AbusiveThrottled += throttled
	} else {
		r.BenignAdmitted += admit
		r.BenignThrottled += throttled
	}
}

// BenignLossShare returns the fraction of benign requests throttled.
func (r *RequestRateLimit) BenignLossShare() float64 {
	total := r.BenignAdmitted + r.BenignThrottled
	if total == 0 {
		return 0
	}
	return float64(r.BenignThrottled) / float64(total)
}

// AbusiveBlockShare returns the fraction of abusive requests throttled.
func (r *RequestRateLimit) AbusiveBlockShare() float64 {
	total := r.AbusiveAdmitted + r.AbusiveThrottled
	if total == 0 {
		return 0
	}
	return float64(r.AbusiveThrottled) / float64(total)
}
