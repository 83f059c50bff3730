package core

import (
	"sort"

	"userv6/internal/netmodel"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// Prevalence tracks daily IPv6 shares of users and requests (Figure 1)
// and per-ASN / per-country user IPv6 ratios (Tables 1 and 2). The zero
// value is not ready; use NewPrevalence.
type Prevalence struct {
	days map[simtime.Day]*dayTally
	// per-entity per-window tallies for ASN/country tables.
	userSeen map[userDayKey]uint8 // bitmask: 1 = any, 2 = v6
	asn      map[netmodel.ASN]*ratioTally
	country  map[string]*ratioTally
	// asnSeen/countrySeen dedup (user, asn) and (user, country).
	asnSeen     map[userASNKey]uint8
	countrySeen map[userCountryKey]uint8
}

type dayTally struct {
	reqV4, reqV6 uint64
}

type userDayKey struct {
	uid uint64
	day simtime.Day
}

type userASNKey struct {
	uid uint64
	asn netmodel.ASN
}

type userCountryKey struct {
	uid uint64
	cc  [2]byte
}

type ratioTally struct {
	users, v6Users int
}

// NewPrevalence returns an empty prevalence tracker.
func NewPrevalence() *Prevalence {
	return &Prevalence{
		days:        make(map[simtime.Day]*dayTally),
		userSeen:    make(map[userDayKey]uint8),
		asn:         make(map[netmodel.ASN]*ratioTally),
		country:     make(map[string]*ratioTally),
		asnSeen:     make(map[userASNKey]uint8),
		countrySeen: make(map[userCountryKey]uint8),
	}
}

// Observe feeds one observation (benign users only are expected, but the
// tracker is agnostic).
func (p *Prevalence) Observe(o telemetry.Observation) {
	d := p.days[o.Day]
	if d == nil {
		d = &dayTally{}
		p.days[o.Day] = d
	}
	isV6 := o.Addr.Is6()
	if isV6 {
		d.reqV6 += uint64(o.Requests)
	} else {
		d.reqV4 += uint64(o.Requests)
	}

	mark := uint8(1)
	if isV6 {
		mark = 3
	}
	p.userSeen[userDayKey{o.UserID, o.Day}] |= mark

	// ASN table: a user counts toward an ASN if they used it at all,
	// and toward its v6 ratio if they used it over IPv6.
	ak := userASNKey{o.UserID, o.ASN}
	prev := p.asnSeen[ak]
	p.asnSeen[ak] = prev | mark
	t := p.asn[o.ASN]
	if t == nil {
		t = &ratioTally{}
		p.asn[o.ASN] = t
	}
	if prev == 0 {
		t.users++
	}
	if prev&2 == 0 && mark&2 != 0 {
		t.v6Users++
	}

	ck := userCountryKey{o.UserID, o.Country}
	prevC := p.countrySeen[ck]
	p.countrySeen[ck] = prevC | mark
	ct := p.country[o.CountryCode()]
	if ct == nil {
		ct = &ratioTally{}
		p.country[o.CountryCode()] = ct
	}
	if prevC == 0 {
		ct.users++
	}
	if prevC&2 == 0 && mark&2 != 0 {
		ct.v6Users++
	}
}

// Merge folds another tracker's state into p, exactly for any split of
// the observation stream: request tallies sum, the per-(user, window)
// bitmasks OR, and the ASN/country user tallies are recomputed
// incrementally from the mask transitions — a user contributes to an
// entity's count the first time any shard saw them, and to its v6 count
// the first time any shard saw them over IPv6. The smaller state is
// folded into the larger (the two swap whole trackers first when other
// holds more (user, day) masks), so other must not be used after Merge.
func (p *Prevalence) Merge(other *Prevalence) {
	if len(other.userSeen) > len(p.userSeen) {
		*p, *other = *other, *p
	}
	for day, od := range other.days {
		d := p.days[day]
		if d == nil {
			d = &dayTally{}
			p.days[day] = d
		}
		d.reqV4 += od.reqV4
		d.reqV6 += od.reqV6
	}
	for k, m := range other.userSeen {
		p.userSeen[k] |= m
	}
	for k, m := range other.asnSeen {
		prev := p.asnSeen[k]
		p.asnSeen[k] = prev | m
		t := p.asn[k.asn]
		if t == nil {
			t = &ratioTally{}
			p.asn[k.asn] = t
		}
		if prev == 0 && m != 0 {
			t.users++
		}
		if prev&2 == 0 && m&2 != 0 {
			t.v6Users++
		}
	}
	for k, m := range other.countrySeen {
		prev := p.countrySeen[k]
		p.countrySeen[k] = prev | m
		cc := string(k.cc[:])
		t := p.country[cc]
		if t == nil {
			t = &ratioTally{}
			p.country[cc] = t
		}
		if prev == 0 && m != 0 {
			t.users++
		}
		if prev&2 == 0 && m&2 != 0 {
			t.v6Users++
		}
	}
}

// DayShare is one day's IPv6 prevalence.
type DayShare struct {
	Day                  simtime.Day
	UserShare, ReqShare  float64
	Users, V6Users       int
	Requests, V6Requests uint64
}

// Daily returns per-day IPv6 prevalence ordered by day (Figure 1).
func (p *Prevalence) Daily() []DayShare {
	perDay := make(map[simtime.Day]*struct{ users, v6 int })
	for k, mark := range p.userSeen {
		t := perDay[k.day]
		if t == nil {
			t = &struct{ users, v6 int }{}
			perDay[k.day] = t
		}
		t.users++
		if mark&2 != 0 {
			t.v6++
		}
	}
	out := make([]DayShare, 0, len(p.days))
	for day, d := range p.days {
		s := DayShare{Day: day, Requests: d.reqV4 + d.reqV6, V6Requests: d.reqV6}
		if s.Requests > 0 {
			s.ReqShare = float64(d.reqV6) / float64(s.Requests)
		}
		if u := perDay[day]; u != nil {
			s.Users, s.V6Users = u.users, u.v6
			if u.users > 0 {
				s.UserShare = float64(u.v6) / float64(u.users)
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Day < out[j].Day })
	return out
}

// RatioRow is one ASN's or country's IPv6 user ratio.
type RatioRow struct {
	ASN     netmodel.ASN
	Name    string
	Country string
	Users   int
	Ratio   float64
}

// TopASNs returns ASNs with at least minUsers users, ranked by v6 user
// ratio descending (Table 1). resolve maps ASNs to display names and may
// be nil.
func (p *Prevalence) TopASNs(minUsers, k int, resolve func(netmodel.ASN) string) []RatioRow {
	rows := make([]RatioRow, 0, len(p.asn))
	for asn, t := range p.asn {
		if t.users < minUsers {
			continue
		}
		r := RatioRow{ASN: asn, Users: t.users, Ratio: float64(t.v6Users) / float64(t.users)}
		if resolve != nil {
			r.Name = resolve(asn)
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Ratio != rows[j].Ratio {
			return rows[i].Ratio > rows[j].Ratio
		}
		return rows[i].ASN < rows[j].ASN
	})
	if k > 0 && k < len(rows) {
		rows = rows[:k]
	}
	return rows
}

// ASNShareBands reports the fractions of qualifying ASNs (>= minUsers)
// with zero IPv6 usage and with under 10% of users on IPv6 (§4.2).
func (p *Prevalence) ASNShareBands(minUsers int) (zero, underTen float64, total int) {
	var z, u int
	for _, t := range p.asn {
		if t.users < minUsers {
			continue
		}
		total++
		ratio := float64(t.v6Users) / float64(t.users)
		if t.v6Users == 0 {
			z++
		} else if ratio < 0.10 {
			u++
		}
	}
	if total > 0 {
		zero = float64(z) / float64(total)
		underTen = float64(u) / float64(total)
	}
	return zero, underTen, total
}

// TopCountries returns countries with at least minUsers users, ranked by
// v6 user ratio descending (Table 2 / Figure 12).
func (p *Prevalence) TopCountries(minUsers, k int) []RatioRow {
	rows := make([]RatioRow, 0, len(p.country))
	for cc, t := range p.country {
		if t.users < minUsers {
			continue
		}
		rows = append(rows, RatioRow{Country: cc, Users: t.users, Ratio: float64(t.v6Users) / float64(t.users)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Ratio != rows[j].Ratio {
			return rows[i].Ratio > rows[j].Ratio
		}
		return rows[i].Country < rows[j].Country
	})
	if k > 0 && k < len(rows) {
		rows = rows[:k]
	}
	return rows
}

// CountryRatio returns one country's v6 user ratio and user count.
func (p *Prevalence) CountryRatio(code string) (ratio float64, users int) {
	t := p.country[code]
	if t == nil || t.users == 0 {
		return 0, 0
	}
	return float64(t.v6Users) / float64(t.users), t.users
}
