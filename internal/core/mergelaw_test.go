package core

// Merge laws: every registration's Merge is a commutative monoid over
// the states of any split of a stream. For random splits of the oracle
// stream into three parts A, B and C, folding A and B in either order,
// folding (A B) C and A (B C), and folding A with an empty replica on
// either side must each answer every query alike. Answers are compared
// by query surface, as assertSurface compares them, because the user
// table's layout depends on the fold order.
//
// Split laws: a stream whose records' requests are split across
// several records of the same sighting, and telemetry.Coalesce of that
// stream in blocks, as analysis feeds a stored stream, must answer
// every query as the stream itself does.

import (
	"fmt"
	"slices"
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/rng"
	"userv6/internal/telemetry"
)

// lawAnalyzer is one registration under the Merge laws: a fresh
// instance, its Merge, and its query surface.
type lawAnalyzer struct {
	name    string
	mk      func() Observer
	merge   func(into, from Observer)
	surface func(Observer) map[string]any
}

func law[T Observer](name string, mk func() T, merge func(into, from T), surface func(a T, q map[string]any)) lawAnalyzer {
	return lawAnalyzer{
		name:  name,
		mk:    func() Observer { return mk() },
		merge: func(into, from Observer) { merge(into.(T), from.(T)) },
		surface: func(a Observer) map[string]any {
			q := map[string]any{}
			surface(a.(T), q)
			return q
		},
	}
}

// lawAnalyzers are the registrations the laws cover: the five default
// analyzers, IPCentric at three granularities and Lifespans at lengths
// where the families share key words (8, 32) and where only IPv6 fits
// (64, 128), Actioning over two days and over a week, Segmentation,
// RequestLoad and IPNovelty.
func lawAnalyzers() []lawAnalyzer {
	ic := func(fam netaddr.Family, length int) lawAnalyzer {
		return law(fmt.Sprintf("ipcentric %v/%d", fam, length),
			func() *IPCentric { return NewIPCentric(fam, length) }, (*IPCentric).Merge,
			func(ic *IPCentric, q map[string]any) { ipCentricQueries(q, "ic", ic) })
	}
	lifeLengths := []int{8, 32, 64, 128}
	var lifeAges []famLength
	for _, length := range lifeLengths {
		lifeAges = append(lifeAges, famLength{netaddr.IPv4, length}, famLength{netaddr.IPv6, length})
	}
	return []lawAnalyzer{
		law("usercentric", NewUserCentric, (*UserCentric).Merge,
			func(uc *UserCentric, q map[string]any) { userCentricQueries(q, uc) }),
		ic(netaddr.IPv4, 32),
		ic(netaddr.IPv6, 64),
		ic(netaddr.IPv6, 128),
		law("lifespans", func() *Lifespans { return NewLifespans(oracleRef, lifeLengths...) }, (*Lifespans).Merge,
			func(l *Lifespans, q map[string]any) { lifespanQueries(q, l, lifeAges) }),
		law("churn", func() *ChurnAttribution { return NewChurnAttribution(oracleCountFrom) }, (*ChurnAttribution).Merge,
			func(c *ChurnAttribution, q map[string]any) { q["churn"] = c.Breakdown() }),
		law("prevalence", NewPrevalence, (*Prevalence).Merge,
			func(p *Prevalence, q map[string]any) { prevalenceQueries(q, p) }),
		law("actioning", func() *Actioning { return NewActioning(netaddr.IPv6, 64, 1, 2) }, (*Actioning).Merge,
			func(ac *Actioning, q map[string]any) {
				// Each threshold's counts also hold the day-To entity
				// counts: TP+FN abusive, FP+TN benign.
				for _, th := range DefaultThresholds() {
					q[fmt.Sprintf("counts@%v", th)] = ac.Counts(th)
				}
				// As text: a rate over an empty population is NaN, which
				// equals nothing.
				q["curve"] = fmt.Sprint(ac.Curve(DefaultThresholds()).Points)
			}),
		law("actioning week", func() *Actioning { return NewActioning(netaddr.IPv4, 32, 0, 6) }, (*Actioning).Merge,
			func(ac *Actioning, q map[string]any) {
				for _, p := range []struct {
					threshold float64
					ttl       int
				}{{0.1, 1}, {0.5, 3}} {
					c, size := ac.Blocklist(p.threshold, p.ttl)
					q[fmt.Sprintf("blocklist@%v,%d", p.threshold, p.ttl)] = [2]any{c, size}
				}
				q["recall"] = ac.RecallDecay(3)
				q["ratelimit"] = ac.RateLimit([]int{1, 3})
			}),
		law("segmentation", func() *Segmentation { return NewSegmentation(ClassifyByASN(lawKinds)) }, (*Segmentation).Merge,
			func(s *Segmentation, q map[string]any) { q["segments"] = s.Report() }),
		law("requestload", func() *RequestLoad { return NewRequestLoad(netaddr.IPv6, 64) }, (*RequestLoad).Merge,
			func(r *RequestLoad, q map[string]any) {
				for _, c := range []uint64{1, 7, 100} {
					q[fmt.Sprint("limit@", c)] = r.Limit(c)
				}
			}),
		law("ipnovelty", func() *IPNovelty { return NewIPNovelty(lawHosting) }, (*IPNovelty).Merge,
			func(n *IPNovelty, q map[string]any) {
				q["users"] = n.Users()
				q["flagged"] = n.Flagged()
			}),
	}
}

// lawHosting marks the oracle stream's region-4 ASN as hosting, so
// users who move there after an access sighting are flagged.
var lawHosting = map[netmodel.ASN]bool{104: true}

// lawKinds classifies the oracle stream's region ASNs; the heavy
// user's ASNs stay unclassified, so their sightings are dropped.
var lawKinds = map[netmodel.ASN]netmodel.Kind{
	100: netmodel.Mobile, 101: netmodel.Residential, 102: netmodel.Residential,
	103: netmodel.Enterprise, 104: netmodel.Hosting, 105: netmodel.Mobile,
}

// randomSplit deals each record of stream to one of three parts, with
// part weights drawn from src so the parts differ in size.
func randomSplit(src *rng.Source, stream []telemetry.Observation) [3][]telemetry.Observation {
	var parts [3][]telemetry.Observation
	w := [3]int{1 + src.Intn(8), 1 + src.Intn(8), 1 + src.Intn(8)}
	for _, o := range stream {
		x := src.Intn(w[0] + w[1] + w[2])
		i := 0
		for x >= w[i] {
			x -= w[i]
			i++
		}
		parts[i] = append(parts[i], o)
	}
	return parts
}

// checkMergeLaws checks a's Merge laws on the three parts. Merge may
// take over its argument's state, so every side of a law folds fresh
// replicas.
func checkMergeLaws(t *testing.T, label string, a lawAnalyzer, parts [3][]telemetry.Observation) {
	t.Helper()
	part := func(i int) func() Observer {
		return func() Observer {
			x := a.mk()
			for _, o := range parts[i] {
				x.Observe(o)
			}
			return x
		}
	}
	A, B, C, empty := part(0), part(1), part(2), a.mk
	fold := func(into, from Observer) Observer {
		a.merge(into, from)
		return into
	}
	for _, l := range []struct {
		name     string
		lhs, rhs func() Observer
	}{
		{"commutative", func() Observer { return fold(A(), B()) }, func() Observer { return fold(B(), A()) }},
		{"associative", func() Observer { return fold(fold(A(), B()), C()) }, func() Observer { return fold(A(), fold(B(), C())) }},
		{"left identity", func() Observer { return fold(empty(), A()) }, A},
		{"right identity", func() Observer { return fold(A(), empty()) }, A},
	} {
		assertQueries(t, fmt.Sprintf("%s, %s: %s", label, a.name, l.name), a.surface(l.lhs()), a.surface(l.rhs()))
	}
}

// splitRequests copies stream and splits the requests of about a third
// of its records across 2-3 records of the same sighting, which take
// the record's place in the stream. A part may hold no requests.
func splitRequests(src *rng.Source, stream []telemetry.Observation) []telemetry.Observation {
	var out []telemetry.Observation
	for _, o := range stream {
		if src.Intn(3) == 0 {
			for c := 1 + src.Intn(2); c > 0; c-- {
				part := o
				part.Requests = uint32(src.Uint64() % (uint64(o.Requests) + 1))
				o.Requests -= part.Requests
				out = append(out, part)
			}
		}
		out = append(out, o)
	}
	return out
}

// coalesceBlocks cuts stream into blocks of 1-128 records, coalesces
// each as analysis coalesces a decoded block, and returns what the
// blocks kept, in order.
func coalesceBlocks(src *rng.Source, stream []telemetry.Observation) []telemetry.Observation {
	stream = slices.Clone(stream)
	var out []telemetry.Observation
	for len(stream) > 0 {
		n := min(1+src.Intn(128), len(stream))
		out = append(out, telemetry.Coalesce(stream[:n])...)
		stream = stream[n:]
	}
	return out
}

// checkSplitLaws checks a's split laws: fed split (stream with requests
// split across records) or coalesced (split after coalesceBlocks), a
// answers every query as it does fed stream.
func checkSplitLaws(t *testing.T, label string, a lawAnalyzer, stream, split, coalesced []telemetry.Observation) {
	t.Helper()
	feed := func(s []telemetry.Observation) map[string]any {
		x := a.mk()
		for _, o := range s {
			x.Observe(o)
		}
		return a.surface(x)
	}
	want := feed(stream)
	assertQueries(t, fmt.Sprintf("%s, %s: split requests", label, a.name), feed(split), want)
	assertQueries(t, fmt.Sprintf("%s, %s: coalesced blocks", label, a.name), feed(coalesced), want)
}

// TestMergeLaws checks the Merge laws and the split laws of every
// lawAnalyzers registration on random splits of oracle streams, in user
// order and shuffled. The heavy user's key lists outgrow indexAt, so
// the laws cover indexed lists too. In user order a split record's
// parts share a run, so coalescing must merge them.
func TestMergeLaws(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		stream := oracleStream(seed, 120, 10, 400)
		split := splitRequests(rng.New(seed*17), stream)
		if seed == 2 {
			stream = shuffled(rng.New(seed), stream)
			split = shuffled(rng.New(seed*19), split)
		}
		parts := randomSplit(rng.New(seed*13), stream)
		if slices.ContainsFunc(parts[:], func(p []telemetry.Observation) bool { return len(p) == 0 }) {
			t.Fatalf("seed %d: a part of the split is empty", seed)
		}
		coalesced := coalesceBlocks(rng.New(seed*23), split)
		if seed != 2 && len(coalesced) >= len(stream) {
			t.Fatalf("seed %d: coalescing %d split records in user order kept %d, the stream has %d",
				seed, len(split), len(coalesced), len(stream))
		}
		for _, a := range lawAnalyzers() {
			checkMergeLaws(t, fmt.Sprintf("seed %d", seed), a, parts)
			checkSplitLaws(t, fmt.Sprintf("seed %d", seed), a, stream, split, coalesced)
		}
	}
}

// FuzzMergeLaws turns the fuzz input into a stream seed and shape, a
// random split and a random request split; every registration must
// obey the Merge laws and the split laws.
func FuzzMergeLaws(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(0))
	f.Add(uint64(2), uint8(40), uint8(0x1b))
	f.Add(uint64(3), uint8(5), uint8(0x24))
	f.Fuzz(func(t *testing.T, seed uint64, users, shape uint8) {
		heavy := 0
		if shape&16 != 0 {
			heavy = 80
		}
		stream := oracleStream(seed, int(users%48), 1+int(shape)%10, heavy)
		split := splitRequests(rng.New(seed^0x5b1d), stream)
		if shape&32 != 0 {
			stream = shuffled(rng.New(seed), stream)
			split = shuffled(rng.New(seed^0x5b1d), split)
		}
		parts := randomSplit(rng.New(seed^0x5eed), stream)
		coalesced := coalesceBlocks(rng.New(seed^0xb10c), split)
		for _, a := range lawAnalyzers() {
			checkMergeLaws(t, fmt.Sprintf("seed %d", seed), a, parts)
			checkSplitLaws(t, fmt.Sprintf("seed %d", seed), a, stream, split, coalesced)
		}
	})
}
