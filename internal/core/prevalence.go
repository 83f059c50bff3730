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
	days  map[simtime.Day]*dayTally
	users userTable[userMasks]
	// asn and country tally each entity's users and IPv6 users; they
	// change only when a user's mask for the entity does.
	asn     map[netmodel.ASN]*ratioTally
	country map[string]*ratioTally
}

type dayTally struct {
	reqV4, reqV6 uint64
}

// userMasks holds one user's sighting masks (1 = any, 2 = IPv6) per
// day, per ASN and per country.
type userMasks struct {
	days      keyList[simtime.Day, uint8]
	asns      keyList[netmodel.ASN, uint8]
	countries keyList[[2]byte, uint8]
}

type ratioTally struct {
	users, v6Users int
}

// count records that a user's mask for the entity grew from prev to
// next: the user counts toward the entity once, and toward its IPv6
// tally once seen over IPv6.
func (t *ratioTally) count(prev, next uint8) {
	if prev == 0 && next != 0 {
		t.users++
	}
	if prev&2 == 0 && next&2 != 0 {
		t.v6Users++
	}
}

// uncount removes the second count of a user whose masks two replicas
// both counted, a and b.
func (t *ratioTally) uncount(a, b uint8) {
	t.users--
	if a&b&2 != 0 {
		t.v6Users--
	}
}

// tally returns k's tally in m, creating it if absent.
func tally[K comparable](m map[K]*ratioTally, k K) *ratioTally {
	t := m[k]
	if t == nil {
		t = &ratioTally{}
		m[k] = t
	}
	return t
}

// NewPrevalence returns an empty prevalence tracker.
func NewPrevalence() *Prevalence {
	return &Prevalence{
		days:    make(map[simtime.Day]*dayTally),
		asn:     make(map[netmodel.ASN]*ratioTally),
		country: make(map[string]*ratioTally),
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
	u, _ := p.users.get(o.UserID)
	m, _ := u.days.slot(o.Day)
	*m |= mark

	// ASN table: a user counts toward an ASN if they used it at all,
	// and toward its v6 ratio if they used it over IPv6.
	if m, _ := u.asns.slot(o.ASN); *m|mark != *m {
		tally(p.asn, o.ASN).count(*m, *m|mark)
		*m |= mark
	}
	if m, _ := u.countries.slot(o.Country); *m|mark != *m {
		tally(p.country, o.CountryCode()).count(*m, *m|mark)
		*m |= mark
	}
}

// Merge folds another tracker's state into p, exactly for any split of
// the observation stream: request tallies and the ASN/country user
// tallies sum, users only other saw are adopted, and the per-(user,
// window) masks of users both saw OR — each ASN or country both
// replicas counted a user toward is uncounted once, and its v6 tally
// likewise when both saw the user over IPv6. The smaller state is
// folded into the larger (the two swap whole trackers first when other
// holds more users), so other must not be used after Merge.
func (p *Prevalence) Merge(other *Prevalence) {
	if other.users.len() > p.users.len() {
		*p, *other = *other, *p
	}
	for day, od := range other.days {
		d := p.days[day]
		if d == nil {
			p.days[day] = od
			continue
		}
		d.reqV4 += od.reqV4
		d.reqV6 += od.reqV6
	}
	for asn, ot := range other.asn {
		t := tally(p.asn, asn)
		t.users += ot.users
		t.v6Users += ot.v6Users
	}
	for cc, ot := range other.country {
		t := tally(p.country, cc)
		t.users += ot.users
		t.v6Users += ot.v6Users
	}
	p.users.merge(&other.users, func(into, from *userMasks) {
		into.days.merge(&from.days, func(_ simtime.Day, m *uint8, om uint8) { *m |= om })
		into.asns.merge(&from.asns, func(asn netmodel.ASN, m *uint8, om uint8) {
			p.asn[asn].uncount(*m, om)
			*m |= om
		})
		into.countries.merge(&from.countries, func(cc [2]byte, m *uint8, om uint8) {
			p.country[string(cc[:])].uncount(*m, om)
			*m |= om
		})
	})
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
	for _, u := range p.users.m {
		for i, day := range u.days.keys {
			t := perDay[day]
			if t == nil {
				t = &struct{ users, v6 int }{}
				perDay[day] = t
			}
			t.users++
			if u.days.vals[i]&2 != 0 {
				t.v6++
			}
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
