package core

import (
	"userv6/internal/netaddr"
	"userv6/internal/telemetry"
)

// RequestLoad keeps each prefix-day's benign and abusive request sums
// at one granularity, for capping *requests* (not entities) per prefix
// per day: the logged-out safeguard against scrapers, which present no
// account, that the paper's §7.2 rate-limiting discussion ends on.
// Limit replays a cap over the sums.
type RequestLoad struct {
	Family netaddr.Family
	Length int

	load map[dayPrefix]struct{ benign, abusive uint64 }
}

// dayPrefix is one prefix on one day, the prefix as its masked words.
type dayPrefix struct {
	day int32
	pfx addrKey
}

// NewRequestLoad returns an analyzer at one granularity.
func NewRequestLoad(fam netaddr.Family, length int) *RequestLoad {
	return &RequestLoad{Family: fam, Length: length, load: make(map[dayPrefix]struct{ benign, abusive uint64 })}
}

// Observe adds one observation's requests to its prefix-day.
func (r *RequestLoad) Observe(o telemetry.Observation) {
	if o.Addr.Family() != r.Family || r.Length > o.Addr.Bits() {
		return
	}
	k := dayPrefix{day: int32(o.Day), pfx: keyOf(netaddr.PrefixFrom(o.Addr, r.Length).Addr())}
	s := r.load[k]
	if o.Abusive {
		s.abusive += uint64(o.Requests)
	} else {
		s.benign += uint64(o.Requests)
	}
	r.load[k] = s
}

// Merge adds another analyzer's sums into r. Both must use the same
// granularity. The larger table is kept and the smaller added into it,
// so other must not be used after Merge.
func (r *RequestLoad) Merge(other *RequestLoad) {
	if len(other.load) > len(r.load) {
		r.load, other.load = other.load, r.load
	}
	for k, from := range other.load {
		into := r.load[k]
		into.benign += from.benign
		into.abusive += from.abusive
		r.load[k] = into
	}
}

// RequestTallies are a cap's admitted and throttled requests, benign
// and abusive apart.
type RequestTallies struct {
	BenignAdmitted, BenignThrottled   uint64
	AbusiveAdmitted, AbusiveThrottled uint64
}

// Limit replays a budget of capPerDay requests per prefix-day: each
// prefix-day admits its benign requests first, up to the budget, and
// its abusive requests fill what is left. A budget below 1 counts as 1.
func (r *RequestLoad) Limit(capPerDay uint64) RequestTallies {
	capPerDay = max(capPerDay, 1)
	var t RequestTallies
	for _, s := range r.load {
		benign := min(s.benign, capPerDay)
		abusive := min(s.abusive, capPerDay-benign)
		t.BenignAdmitted += benign
		t.BenignThrottled += s.benign - benign
		t.AbusiveAdmitted += abusive
		t.AbusiveThrottled += s.abusive - abusive
	}
	return t
}

// BenignLossShare returns the fraction of benign requests throttled.
func (t RequestTallies) BenignLossShare() float64 {
	return throttledShare(t.BenignAdmitted, t.BenignThrottled)
}

// AbusiveBlockShare returns the fraction of abusive requests throttled.
func (t RequestTallies) AbusiveBlockShare() float64 {
	return throttledShare(t.AbusiveAdmitted, t.AbusiveThrottled)
}

func throttledShare(admitted, throttled uint64) float64 {
	if admitted+throttled == 0 {
		return 0
	}
	return float64(throttled) / float64(admitted+throttled)
}
