package userv6

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"userv6/internal/core"
	"userv6/internal/dataset"
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

// exportWeek exports sim's analysis week as a shards-part directory and
// opens it as a source, so the sharded path can be analyzed in place.
func exportWeek(t *testing.T, sim *Sim, shards int) dataset.Source {
	t.Helper()
	from, to := AnalysisWeek()
	meta := dataset.Meta{
		Seed: sim.Scenario.Seed, Users: sim.Scenario.Users,
		FromDay: int(from), ToDay: int(to), Sample: "all",
	}
	dir := t.TempDir()
	if _, err := sim.ExportShardedCtx(context.Background(), dir, shards, meta, nil); err != nil {
		t.Fatal(err)
	}
	src, err := dataset.OpenSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// analyzeWith runs set over src with AnalyzeSource at the given worker
// count.
func analyzeWith(t *testing.T, src dataset.Source, set *core.AnalyzerSet, workers int) {
	t.Helper()
	if _, err := AnalyzeSource(context.Background(), src, set, AnalyzeOptions{Workers: workers}); err != nil {
		t.Fatal(err)
	}
}

// A sharded export analyzed in place must populate every registered
// analyzer exactly as a serial generate-and-observe pass does, at any
// shard count and in both execution modes.
func TestAnalyzeParallelCtxMatchesSerial(t *testing.T) {
	sim := NewSim(DefaultScenario(2_000))
	from, to := AnalysisWeek()

	serial := newAnalyzeSet()
	sim.Generate(from, to, serial.set.Observe)

	for _, shards := range []int{1, 3, 4} {
		src := exportWeek(t, sim, shards)
		for _, workers := range []int{1, 4} {
			got := newAnalyzeSet()
			analyzeWith(t, src, got.set, workers)
			got.assertEqual(t, serial, fmt.Sprintf("shards=%d workers=%d", shards, workers))
		}
	}
}
