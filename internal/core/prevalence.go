package core

import (
	"sort"

	"userv6/internal/netmodel"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// Prevalence tracks daily IPv6 shares of users and requests (Figure 1)
// and per-ASN / per-country user IPv6 ratios (Tables 1 and 2). Its
// users' sighting masks are its user state; every query counts users
// from them when asked. The zero value is not ready; use NewPrevalence.
type Prevalence struct {
	// reqs sums each day's requests over IPv4 (reqs[0]) and IPv6
	// (reqs[1]): the one cross-user state, as the masks hold no
	// requests.
	reqs  [2]map[int32]uint64
	users userTable[userMasks]
	// The users' mask lists, by field of userMasks.
	dayMasks     keyPool[int32, uint8]
	asnMasks     keyPool[netmodel.ASN, uint8]
	countryMasks keyPool[[2]byte, uint8]
}

// userMasks holds one user's sighting masks (1 = any, 2 = IPv6) per
// day, per ASN and per country.
type userMasks struct {
	days, asns, countries keyList
}

// ratioTally is one day's, ASN's or country's users and IPv6 users.
type ratioTally struct {
	users, v6Users int
}

// tallyMasks counts, for each key of the lists that list picks from
// p's users, its users and its IPv6 users: a user counts toward a key
// if they used it at all, and toward its v6 tally if they used it over
// IPv6.
func tallyMasks[K comparable](p *Prevalence, pool *keyPool[K, uint8], list func(*userMasks) keyList) map[K]ratioTally {
	m := make(map[K]ratioTally)
	p.users.each(func(_ uint64, u *userMasks) {
		l := list(u)
		masks := pool.valsOf(l)
		for i, k := range pool.keysOf(l) {
			t := m[k]
			t.users++
			if masks[i]&2 != 0 {
				t.v6Users++
			}
			m[k] = t
		}
	})
	return m
}

// orMask folds a mask two replicas both hold for one key.
func orMask[K comparable](_ K, m *uint8, om uint8) { *m |= om }

// NewPrevalence returns an empty prevalence tracker.
func NewPrevalence() *Prevalence {
	return &Prevalence{reqs: [2]map[int32]uint64{make(map[int32]uint64), make(map[int32]uint64)}}
}

// Observe feeds one observation (benign users only are expected, but the
// tracker is agnostic).
func (p *Prevalence) Observe(o telemetry.Observation) {
	fam, mark := 0, uint8(1)
	if o.Addr.Is6() {
		fam, mark = 1, 3
	}
	day := int32(o.Day)
	p.reqs[fam][day] += uint64(o.Requests)

	u, _ := p.users.get(o.UserID)
	m, _ := p.dayMasks.slot(&u.days, day)
	*m |= mark
	m, _ = p.asnMasks.slot(&u.asns, o.ASN)
	*m |= mark
	m, _ = p.countryMasks.slot(&u.countries, o.Country)
	*m |= mark
}

// Merge folds another tracker's state into p, exactly for any split of
// the observation stream: request tallies sum, p adopts other's pool
// chunks whole, users only other saw are adopted, and the
// per-(user, window) masks of users both saw OR. The smaller state is
// folded into the larger (the two swap whole trackers first when other
// holds more users), so other must not be used after Merge.
func (p *Prevalence) Merge(other *Prevalence) {
	if other.users.len() > p.users.len() {
		*p, *other = *other, *p
	}
	for fam, reqs := range other.reqs {
		for day, n := range reqs {
			p.reqs[fam][day] += n
		}
	}
	bd, ba, bc := p.dayMasks.adopt(&other.dayMasks), p.asnMasks.adopt(&other.asnMasks), p.countryMasks.adopt(&other.countryMasks)
	p.users.merge(&other.users, func(u *userMasks, _ int) {
		u.days.rebase(bd)
		u.asns.rebase(ba)
		u.countries.rebase(bc)
	}, func(into, from *userMasks, _ int) {
		p.dayMasks.merge(&into.days, &from.days, orMask)
		p.asnMasks.merge(&into.asns, &from.asns, orMask)
		p.countryMasks.merge(&into.countries, &from.countries, orMask)
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
	perDay := make(map[simtime.Day]*DayShare)
	for fam, reqs := range p.reqs {
		for d, n := range reqs {
			day := simtime.Day(d)
			s := perDay[day]
			if s == nil {
				s = &DayShare{Day: day}
				perDay[day] = s
			}
			s.Requests += n
			if fam == 1 {
				s.V6Requests += n
			}
		}
	}
	for day, t := range tallyMasks(p, &p.dayMasks, func(u *userMasks) keyList { return u.days }) {
		if s := perDay[simtime.Day(day)]; s != nil {
			s.Users, s.V6Users = t.users, t.v6Users
		}
	}
	out := make([]DayShare, 0, len(perDay))
	for _, s := range perDay {
		if s.Requests > 0 {
			s.ReqShare = float64(s.V6Requests) / float64(s.Requests)
		}
		if s.Users > 0 {
			s.UserShare = float64(s.V6Users) / float64(s.Users)
		}
		out = append(out, *s)
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
	asns := tallyMasks(p, &p.asnMasks, func(u *userMasks) keyList { return u.asns })
	rows := make([]RatioRow, 0, len(asns))
	for asn, t := range asns {
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
	for _, t := range tallyMasks(p, &p.asnMasks, func(u *userMasks) keyList { return u.asns }) {
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
	countries := tallyMasks(p, &p.countryMasks, func(u *userMasks) keyList { return u.countries })
	rows := make([]RatioRow, 0, len(countries))
	for cc, t := range countries {
		if t.users < minUsers {
			continue
		}
		rows = append(rows, RatioRow{Country: string(cc[:]), Users: t.users, Ratio: float64(t.v6Users) / float64(t.users)})
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
	if len(code) != 2 {
		return 0, 0
	}
	t := tallyMasks(p, &p.countryMasks, func(u *userMasks) keyList { return u.countries })[[2]byte{code[0], code[1]}]
	if t.users == 0 {
		return 0, 0
	}
	return float64(t.v6Users) / float64(t.users), t.users
}
