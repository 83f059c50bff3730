package core

import (
	"sort"

	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/telemetry"
)

// Segmentation breaks the user-centric metrics down by access-network
// kind (mobile, residential, enterprise, ...) — the paper's first listed
// direction for future work (§8: "characterizing IPv6 behavior across
// different network types"). Observations are attributed to a segment
// via a caller-supplied classifier (typically ASN -> Kind from the world
// model, or a routing-table lookup in a real deployment).
type Segmentation struct {
	classify func(telemetry.Observation) (netmodel.Kind, bool)
	segments map[netmodel.Kind]*segmentAcc
}

// segmentAcc is one kind's users, with their distinct addresses, and
// its requests per family.
type segmentAcc struct {
	users        UserCentric
	reqV4, reqV6 uint64
}

// NewSegmentation returns an analyzer using the given classifier.
// Observations the classifier rejects are dropped.
func NewSegmentation(classify func(telemetry.Observation) (netmodel.Kind, bool)) *Segmentation {
	return &Segmentation{
		classify: classify,
		segments: make(map[netmodel.Kind]*segmentAcc),
	}
}

// ClassifyByASN builds a classifier from an ASN->Kind table.
func ClassifyByASN(kinds map[netmodel.ASN]netmodel.Kind) func(telemetry.Observation) (netmodel.Kind, bool) {
	return func(o telemetry.Observation) (netmodel.Kind, bool) {
		k, ok := kinds[o.ASN]
		return k, ok
	}
}

// Observe feeds one observation.
func (s *Segmentation) Observe(o telemetry.Observation) {
	if !o.Addr.IsValid() {
		return
	}
	kind, ok := s.classify(o)
	if !ok {
		return
	}
	acc := s.segments[kind]
	if acc == nil {
		acc = &segmentAcc{}
		s.segments[kind] = acc
	}
	if o.Addr.Is6() {
		acc.reqV6 += uint64(o.Requests)
	} else {
		acc.reqV4 += uint64(o.Requests)
	}
	acc.users.Observe(o)
}

// Merge folds another segmentation's state into s: per segment, the
// users' address sets merged as UserCentric merges them, and the
// summed requests. Both must use the same classifier. Segments only
// other saw are taken over, so other must not be used after Merge.
func (s *Segmentation) Merge(other *Segmentation) {
	for kind, from := range other.segments {
		into := s.segments[kind]
		if into == nil {
			s.segments[kind] = from
			continue
		}
		into.users.Merge(&from.users)
		into.reqV4 += from.reqV4
		into.reqV6 += from.reqV6
	}
}

// SegmentReport is one network kind's behavioral summary.
type SegmentReport struct {
	Kind  netmodel.Kind
	Users int
	// V6UserShare is the fraction of the segment's users seen over v6.
	V6UserShare float64
	// V6ReqShare is the fraction of requests over v6.
	V6ReqShare float64
	// MedianV4Addrs / MedianV6Addrs are per-user medians of distinct
	// addresses (over users with at least one of the family).
	MedianV4Addrs, MedianV6Addrs int
}

// Report summarizes every observed segment, ordered by Kind.
func (s *Segmentation) Report() []SegmentReport {
	out := make([]SegmentReport, 0, len(s.segments))
	for kind, acc := range s.segments {
		r := SegmentReport{Kind: kind, Users: acc.users.Users()}
		v4, v6 := acc.users.AddrsPerUser(netaddr.IPv4), acc.users.AddrsPerUser(netaddr.IPv6)
		if r.Users > 0 {
			r.V6UserShare = float64(v6.N()) / float64(r.Users)
		}
		if total := acc.reqV4 + acc.reqV6; total > 0 {
			r.V6ReqShare = float64(acc.reqV6) / float64(total)
		}
		r.MedianV4Addrs, r.MedianV6Addrs = v4.Median(), v6.Median()
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}
