package core

import (
	"userv6/internal/netaddr"
	"userv6/internal/sketch"
	"userv6/internal/telemetry"
)

// SketchedIPCentric is the fixed-memory counterpart of IPCentric: it
// tracks distinct users per prefix with HyperLogLog sketches attached to
// the heavy-hitter candidates that a Space-Saving pass surfaces, plus a
// Count-Min filter for population estimates of everything else.
//
// At the paper's vantage point — a trillion requests a day — exact
// per-address user sets are infeasible; this is the shape of the
// production pipeline. The analyzer answers the outlier questions
// (which prefixes are heavy, how heavy, owned by whom) within sketch
// error; the exact IPCentric remains the reference for full CDFs. The
// test suite cross-validates the two on identical streams.
type SketchedIPCentric struct {
	Family netaddr.Family
	Length int

	// heavy tracks candidate heavy prefixes; each candidate gets an HLL
	// for distinct-user counting.
	heavy *sketch.SpaceSaving
	hlls  map[uint64]*sketch.HLL
	keyed map[uint64]netaddr.Prefix
	// pairFilter suppresses repeat (user, prefix) pairs approximately.
	pairFilter *sketch.CountMin
	prefixes   *sketch.HLL
	hllPrec    uint8
	maxHLLs    int
}

// NewSketchedIPCentric returns a sketched analyzer bounded to roughly
// maxTracked heavy candidates.
func NewSketchedIPCentric(fam netaddr.Family, length, maxTracked int) *SketchedIPCentric {
	if maxTracked < 16 {
		maxTracked = 16
	}
	return &SketchedIPCentric{
		Family:     fam,
		Length:     length,
		heavy:      sketch.MustNewSpaceSaving(maxTracked),
		hlls:       make(map[uint64]*sketch.HLL, maxTracked),
		keyed:      make(map[uint64]netaddr.Prefix, maxTracked),
		pairFilter: sketch.MustNewCountMin(1<<16, 4),
		prefixes:   sketch.MustNewHLL(14),
		hllPrec:    12,
		maxHLLs:    maxTracked,
	}
}

// prefixKey folds a prefix into a 64-bit sketch key.
func prefixKey(p netaddr.Prefix) uint64 {
	hi, lo := p.Addr().Words()
	x := hi ^ (lo * 0x9e3779b97f4a7c15) ^ uint64(p.Bits())<<56
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

func pairSketchKey(uid uint64, pk uint64) uint64 {
	x := uid*0xff51afd7ed558ccd ^ pk
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Observe feeds one observation.
func (s *SketchedIPCentric) Observe(o telemetry.Observation) {
	if o.Addr.Family() != s.Family || s.Length > o.Addr.Bits() {
		return
	}
	p := netaddr.PrefixFrom(o.Addr, s.Length)
	pk := prefixKey(p)
	s.prefixes.Add(pk)

	// Approximate (user, prefix) dedup: only the first sighting bumps
	// the heavy-hitter counter, so its counts approximate distinct
	// users rather than observations.
	pairKey := pairSketchKey(o.UserID, pk)
	if s.pairFilter.Count(pairKey) == 0 {
		s.pairFilter.Add(pairKey, 1)
		s.heavy.Add(pk)
	}
	// Every tracked candidate keeps an exact-ish distinct-user HLL.
	if h, ok := s.hlls[pk]; ok {
		h.Add(o.UserID)
		return
	}
	if _, tracked := s.heavy.Count(pk); tracked && len(s.hlls) < s.maxHLLs*2 {
		h := sketch.MustNewHLL(s.hllPrec)
		h.Add(o.UserID)
		s.hlls[pk] = h
		s.keyed[pk] = p
	}
}

// Prefixes estimates the number of distinct prefixes observed.
func (s *SketchedIPCentric) Prefixes() float64 { return s.prefixes.Estimate() }

// SketchedHeavy is one heavy prefix with its estimated user population.
type SketchedHeavy struct {
	Prefix netaddr.Prefix
	// Users is the HLL distinct-user estimate (0 if the candidate was
	// admitted after its first sightings — a lower bound then comes
	// from Count).
	Users float64
	// Count is the Space-Saving (over-)estimate of first-sighting hits.
	Count uint64
}

// Top returns the k heaviest prefixes by estimated distinct users.
func (s *SketchedIPCentric) Top(k int) []SketchedHeavy {
	items := s.heavy.Top(s.maxHLLs)
	out := make([]SketchedHeavy, 0, k)
	for _, it := range items {
		h := SketchedHeavy{Count: it.Count}
		if p, ok := s.keyed[it.Key]; ok {
			h.Prefix = p
		}
		if hll, ok := s.hlls[it.Key]; ok {
			h.Users = hll.Estimate()
		}
		out = append(out, h)
		if len(out) == k {
			break
		}
	}
	return out
}

// CompareExact summarizes agreement between the sketched and exact
// analyzers: the relative error of the heaviest prefix's user estimate
// and the recall of the exact top-k within the sketched top-2k.
func CompareExact(sk *SketchedIPCentric, exact *IPCentric, k int) (topErr float64, recall float64) {
	exTop := exact.TopPrefixes(k)
	if len(exTop) == 0 {
		return 0, 1
	}
	skTop := sk.Top(2 * k)
	inSketch := make(map[netaddr.Prefix]float64, len(skTop))
	for _, h := range skTop {
		if h.Prefix.IsValid() {
			inSketch[h.Prefix] = h.Users
		}
	}
	hits := 0
	for _, e := range exTop {
		if _, ok := inSketch[e.Prefix]; ok {
			hits++
		}
	}
	recall = float64(hits) / float64(len(exTop))
	if est, ok := inSketch[exTop[0].Prefix]; ok && exTop[0].Users > 0 {
		topErr = abs(est-float64(exTop[0].Users)) / float64(exTop[0].Users)
	} else {
		topErr = 1
	}
	return topErr, recall
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
