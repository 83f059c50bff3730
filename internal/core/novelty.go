package core

import (
	"slices"

	"userv6/internal/netmodel"
	"userv6/internal/telemetry"
)

// IPNovelty is the §8 hijacking extension's IP-novelty detector. Per
// user it folds the first access-network day (min) and the last
// hosting-network day (max), and flags the user when the latter is on
// or after the former: the streaming rule "a hosting sighting follows
// an access sighting", on a stream that delivers days in order and a
// user-day's access sightings first, as the generators do.
type IPNovelty struct {
	hosting map[netmodel.ASN]bool
	users   userTable[noveltyDays]
}

// noveltyDays is a user's first access day and last hosting day, each
// stored as day+1, so that 0 means none seen.
type noveltyDays struct{ access, hosting int32 }

// NewIPNovelty returns a detector that counts a sighting on an ASN in
// hosting as a hosting sighting and any other as an access sighting.
func NewIPNovelty(hosting map[netmodel.ASN]bool) *IPNovelty {
	return &IPNovelty{hosting: hosting}
}

// Observe feeds one observation.
func (n *IPNovelty) Observe(o telemetry.Observation) {
	u, _ := n.users.get(o.UserID)
	if d := int32(o.Day) + 1; n.hosting[o.ASN] {
		u.hosting = max(u.hosting, d)
	} else if u.access == 0 || d < u.access {
		u.access = d
	}
}

// Merge folds another detector's users into n: per user, the earlier
// first access day and the later last hosting day. Both must use the
// same hosting set. The larger table is kept, so other must not be used
// after Merge.
func (n *IPNovelty) Merge(other *IPNovelty) {
	if other.users.len() > n.users.len() {
		*n, *other = *other, *n
	}
	n.users.merge(&other.users, func(*noveltyDays, int) {}, func(into, from *noveltyDays, _ int) {
		if into.access == 0 || from.access != 0 && from.access < into.access {
			into.access = from.access
		}
		into.hosting = max(into.hosting, from.hosting)
	})
}

// Users returns the number of users seen on an access network.
func (n *IPNovelty) Users() int {
	users := 0
	n.users.each(func(_ uint64, u *noveltyDays) {
		if u.access > 0 {
			users++
		}
	})
	return users
}

// Flagged returns the IDs of the flagged users, ascending.
func (n *IPNovelty) Flagged() []uint64 {
	var out []uint64
	n.users.each(func(uid uint64, u *noveltyDays) {
		if u.access > 0 && u.hosting >= u.access {
			out = append(out, uid)
		}
	})
	slices.Sort(out)
	return out
}
