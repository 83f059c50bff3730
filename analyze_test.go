package userv6

import (
	"context"
	"reflect"
	"testing"

	"userv6/internal/core"
	"userv6/internal/netaddr"
	"userv6/internal/telemetry"
)

// analyzeSet registers one of every mergeable analyzer and returns the
// primaries for comparison.
type analyzeSet struct {
	set   *core.AnalyzerSet
	uc    *core.UserCentric
	ic    *core.IPCentric
	churn *core.ChurnAttribution
	life  *core.Lifespans
	prev  *core.Prevalence
}

// newAnalyzeSet registers every analyzer commutatively: each one's
// Merge is exact for arbitrary (not just user-disjoint) stream splits,
// which is what the fused analysis path relies on.
func newAnalyzeSet() analyzeSet {
	_, to := AnalysisWeek()
	s := analyzeSet{set: core.NewAnalyzerSet()}
	s.uc = core.NewUserCentricFor(false)
	core.AddCommutativeAnalyzer(s.set, s.uc,
		func() *core.UserCentric { return core.NewUserCentricFor(false) }, (*core.UserCentric).Merge)
	s.ic = core.NewIPCentric(netaddr.IPv6, 64)
	core.AddCommutativeAnalyzer(s.set, s.ic,
		func() *core.IPCentric { return core.NewIPCentric(netaddr.IPv6, 64) }, (*core.IPCentric).Merge)
	s.churn = core.NewChurnAttribution(to - 2)
	core.AddCommutativeAnalyzer(s.set, s.churn,
		func() *core.ChurnAttribution { return core.NewChurnAttribution(to - 2) }, (*core.ChurnAttribution).Merge)
	s.life = core.NewLifespans(to, 64, 128, 32)
	core.AddCommutativeAnalyzer(s.set, s.life,
		func() *core.Lifespans { return core.NewLifespans(to, 64, 128, 32) }, (*core.Lifespans).Merge)
	s.prev = core.NewPrevalence()
	core.AddCommutativeAnalyzerFiltered(s.set, s.prev, core.NewPrevalence, (*core.Prevalence).Merge,
		func(o telemetry.Observation) bool { return !o.Abusive })
	return s
}

// assertEqual compares every analyzer's query surface between two runs.
func (s analyzeSet) assertEqual(t *testing.T, want analyzeSet, label string) {
	t.Helper()
	if s.uc.Users() != want.uc.Users() {
		t.Fatalf("%s: users %d, want %d", label, s.uc.Users(), want.uc.Users())
	}
	if !reflect.DeepEqual(s.uc.AddrsPerUser(netaddr.IPv6), want.uc.AddrsPerUser(netaddr.IPv6)) {
		t.Fatalf("%s: AddrsPerUser differs", label)
	}
	if s.ic.Prefixes() != want.ic.Prefixes() {
		t.Fatalf("%s: prefixes %d, want %d", label, s.ic.Prefixes(), want.ic.Prefixes())
	}
	if !reflect.DeepEqual(s.ic.UsersPerPrefix(), want.ic.UsersPerPrefix()) {
		t.Fatalf("%s: UsersPerPrefix differs", label)
	}
	if s.churn.Breakdown() != want.churn.Breakdown() {
		t.Fatalf("%s: churn %+v, want %+v", label, s.churn.Breakdown(), want.churn.Breakdown())
	}
	if s.life.Pairs() != want.life.Pairs() {
		t.Fatalf("%s: lifespan pairs %d, want %d", label, s.life.Pairs(), want.life.Pairs())
	}
	if !reflect.DeepEqual(s.life.AgeHist(netaddr.IPv6, 128), want.life.AgeHist(netaddr.IPv6, 128)) {
		t.Fatalf("%s: AgeHist differs", label)
	}
	if !reflect.DeepEqual(s.prev.Daily(), want.prev.Daily()) {
		t.Fatalf("%s: Daily differs", label)
	}
	if !reflect.DeepEqual(s.prev.TopASNs(1, 0, nil), want.prev.TopASNs(1, 0, nil)) {
		t.Fatalf("%s: TopASNs differ", label)
	}
}

// AnalyzeParallelCtx must populate every registered analyzer exactly as
// a serial generate-and-observe pass does, at any shard count.
func TestAnalyzeParallelCtxMatchesSerial(t *testing.T) {
	sim := NewSim(DefaultScenario(2_000))
	from, to := AnalysisWeek()

	serial := newAnalyzeSet()
	sim.Generate(from, to, serial.set.Emit())

	for _, shards := range []int{1, 4} {
		par := newAnalyzeSet()
		if err := sim.AnalyzeParallelCtx(context.Background(), from, to, shards, par.set, true); err != nil {
			t.Fatal(err)
		}
		par.assertEqual(t, serial, "shards=4")
	}
}
