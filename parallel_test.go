package userv6

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"userv6/internal/core"
	"userv6/internal/dataset"
	"userv6/internal/netaddr"
	"userv6/internal/simtime"
	"userv6/internal/stats"
	"userv6/internal/telemetry"
)

// exportBenign runs a benign-only sharded export of days [from, to]
// into a fresh directory, with wrap decorating each part's emit func,
// and returns the export's error.
func exportBenign(t *testing.T, ctx context.Context, sim *Sim, from, to simtime.Day, shards int, wrap func(telemetry.EmitFunc) telemetry.EmitFunc) error {
	t.Helper()
	meta := dataset.Meta{
		Seed: sim.Scenario.Seed, Users: len(sim.Pop.Users),
		FromDay: int(from), ToDay: int(to), Sample: "all", BenignOnly: true,
	}
	_, err := sim.ExportShardedCtx(ctx, t.TempDir(), shards, meta, wrap)
	return err
}

// fig2FromSource computes the Figure 2 histograms over src: week and
// last-day UserCentric analyzers, merged across AnalyzeSource's workers.
func fig2FromSource(t *testing.T, src dataset.Source, workers int) AddrsPerUserResult {
	t.Helper()
	_, to := AnalysisWeek()
	set := core.NewAnalyzerSet()
	mkUC := func() *core.UserCentric { return core.NewUserCentricFor(false) }
	week := mkUC()
	core.AddCommutativeAnalyzer(set, week, mkUC, (*core.UserCentric).Merge)
	day := mkUC()
	core.AddCommutativeAnalyzerFiltered(set, day, mkUC, (*core.UserCentric).Merge,
		func(o telemetry.Observation) bool { return o.Day == to })
	analyzeWith(t, src, set, workers)
	return AddrsPerUserResult{
		DayV4:    day.AddrsPerUser(netaddr.IPv4),
		DayV6:    day.AddrsPerUser(netaddr.IPv6),
		WeekV4:   week.AddrsPerUser(netaddr.IPv4),
		WeekV6:   week.AddrsPerUser(netaddr.IPv6),
		Entities: week.Users(),
	}
}

// ipCentricFromSource computes users-per-prefix at one granularity over
// src, merged across AnalyzeSource's workers.
func ipCentricFromSource(t *testing.T, src dataset.Source, workers int, fam netaddr.Family, length int) *core.IPCentric {
	t.Helper()
	set := core.NewAnalyzerSet()
	mk := func() *core.IPCentric { return core.NewIPCentric(fam, length) }
	out := mk()
	core.AddCommutativeAnalyzer(set, out, mk, (*core.IPCentric).Merge)
	analyzeWith(t, src, set, workers)
	return out
}

// TestParallelMatchesSerial: sharded export + parallel analysis must
// reproduce the serial analysis exactly.
func TestParallelMatchesSerial(t *testing.T) {
	sim := NewSim(DefaultScenario(3_000))

	serial := runFigure(sim, (*Paper).Fig2)
	parallel := fig2FromSource(t, exportWeek(t, sim, 4), 4)

	if serial.Entities != parallel.Entities {
		t.Fatalf("entities: serial %d vs parallel %d", serial.Entities, parallel.Entities)
	}
	for v := 0; v <= 30; v++ {
		if serial.WeekV6.CDFAt(v) != parallel.WeekV6.CDFAt(v) {
			t.Fatalf("week v6 CDF differs at %d: %v vs %v",
				v, serial.WeekV6.CDFAt(v), parallel.WeekV6.CDFAt(v))
		}
		if serial.WeekV4.CDFAt(v) != parallel.WeekV4.CDFAt(v) {
			t.Fatalf("week v4 CDF differs at %d", v)
		}
		if serial.DayV6.CDFAt(v) != parallel.DayV6.CDFAt(v) {
			t.Fatalf("day v6 CDF differs at %d", v)
		}
	}
}

func TestIPCentricParallelMatchesSerial(t *testing.T) {
	sim := NewSim(DefaultScenario(3_000))
	from, to := AnalysisWeek()

	serial := core.NewIPCentric(netaddr.IPv6, 64)
	sim.Generate(from, to, serial.Observe)

	parallel := ipCentricFromSource(t, exportWeek(t, sim, 3), 3, netaddr.IPv6, 64)

	if serial.Prefixes() != parallel.Prefixes() {
		t.Fatalf("prefixes: %d vs %d", serial.Prefixes(), parallel.Prefixes())
	}
	sh, ph := serial.UsersPerPrefix(), parallel.UsersPerPrefix()
	if sh.N() != ph.N() || sh.Max() != ph.Max() {
		t.Fatalf("hist N/max differ: %d/%d vs %d/%d", sh.N(), sh.Max(), ph.N(), ph.Max())
	}
	for v := 0; v <= 20; v++ {
		if sh.CDFAt(v) != ph.CDFAt(v) {
			t.Fatalf("CDF differs at %d", v)
		}
	}
	sa, pa := serial.AbusivePerAbusivePrefix(), parallel.AbusivePerAbusivePrefix()
	if sa.N() != pa.N() {
		t.Fatalf("abusive prefixes: %d vs %d", sa.N(), pa.N())
	}
}

func TestGenerateParallelCoversAllUsers(t *testing.T) {
	sim := NewSim(DefaultScenario(1_000))
	seen := make([]map[uint64]bool, 0)
	var serialCount int
	sim.Benign.GenerateDay(84, func(telemetry.Observation) { serialCount++ })

	var (
		mu    sync.Mutex
		total atomic.Int64
	)
	err := exportBenign(t, context.Background(), sim, 84, 84, 5, func(emit telemetry.EmitFunc) telemetry.EmitFunc {
		m := make(map[uint64]bool)
		mu.Lock()
		seen = append(seen, m)
		mu.Unlock()
		return func(o telemetry.Observation) {
			m[o.UserID] = true
			total.Add(1)
			emit(o)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != int64(serialCount) {
		t.Fatalf("parallel emitted %d observations, serial %d", total.Load(), serialCount)
	}
	// Shards are disjoint.
	union := make(map[uint64]bool)
	sum := 0
	for _, m := range seen {
		sum += len(m)
		for uid := range m {
			union[uid] = true
		}
	}
	if sum != len(union) {
		t.Fatalf("shards overlap: %d vs %d distinct", sum, len(union))
	}
}

func TestUserCentricMerge(t *testing.T) {
	a := core.NewUserCentricFor(false)
	b := core.NewUserCentricFor(false)
	o1 := telemetry.Observation{UserID: 1, Addr: netaddr.MustParseAddr("2001:db8::1"), Requests: 1}
	o2 := telemetry.Observation{UserID: 1, Addr: netaddr.MustParseAddr("2001:db8::2"), Requests: 1}
	o3 := telemetry.Observation{UserID: 2, Addr: netaddr.MustParseAddr("10.0.0.1"), Requests: 1}
	a.Observe(o1)
	b.Observe(o2)
	b.Observe(o1) // overlap: must not double-count
	b.Observe(o3)
	a.Merge(b)
	if a.Users() != 2 {
		t.Fatalf("users = %d", a.Users())
	}
	h := a.AddrsPerUser(netaddr.IPv6)
	if h.N() != 1 || h.Max() != 2 {
		t.Fatalf("v6 hist N=%d max=%d", h.N(), h.Max())
	}
	if a.AddrsPerUser(netaddr.IPv4).N() != 1 {
		t.Fatal("v4 user lost in merge")
	}
}

// histFingerprint renders a histogram's full distribution to a string,
// so two runs can be compared byte-for-byte.
func histFingerprint(h *stats.IntHist) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "N=%d max=%d mean=%v;", h.N(), h.Max(), h.Mean())
	for v := 0; uint64(v) <= h.Max(); v++ {
		fmt.Fprintf(&sb, "%d:%v ", v, h.CDFAt(v))
	}
	return sb.String()
}

// Shard-count invariance: the same analysis over exports of 1, 3, and
// GOMAXPROCS shards must produce byte-identical results.
func TestShardCountInvariance(t *testing.T) {
	sim := NewSim(DefaultScenario(2_000))
	shardCounts := []int{1, 3, runtime.GOMAXPROCS(0)}

	type fp struct{ dayV6, weekV4, weekV6 string }
	var fig2 []fp
	var entities []int
	var ipc []string
	for _, n := range shardCounts {
		src := exportWeek(t, sim, n)
		r := fig2FromSource(t, src, n)
		fig2 = append(fig2, fp{
			dayV6:  histFingerprint(r.DayV6),
			weekV4: histFingerprint(r.WeekV4),
			weekV6: histFingerprint(r.WeekV6),
		})
		entities = append(entities, r.Entities)
		ic := ipCentricFromSource(t, src, n, netaddr.IPv6, 64)
		ipc = append(ipc, fmt.Sprintf("p=%d;%s", ic.Prefixes(), histFingerprint(ic.UsersPerPrefix())))
	}
	for i := 1; i < len(shardCounts); i++ {
		if entities[i] != entities[0] {
			t.Fatalf("entities differ: shards=%d gives %d, shards=%d gives %d",
				shardCounts[0], entities[0], shardCounts[i], entities[i])
		}
		if fig2[i] != fig2[0] {
			t.Fatalf("Figure 2 histograms differ between shards=%d and shards=%d",
				shardCounts[0], shardCounts[i])
		}
		if ipc[i] != ipc[0] {
			t.Fatalf("users-per-prefix differs between shards=%d and shards=%d",
				shardCounts[0], shardCounts[i])
		}
	}
}

// An injected consumer panic must surface as a *ShardPanicError naming
// the shard's user range — not crash the process — and the sibling
// shards must be cancelled rather than run to completion.
func TestGenerateParallelCtxPanicIsolated(t *testing.T) {
	sim := NewSim(DefaultScenario(2_000))
	from, to := AnalysisWeek()

	const panicUser = 777
	err := exportBenign(t, context.Background(), sim, from, to, 4, func(emit telemetry.EmitFunc) telemetry.EmitFunc {
		return func(o telemetry.Observation) {
			if o.UserID == panicUser {
				panic("injected consumer fault")
			}
			emit(o)
		}
	})
	if err == nil {
		t.Fatal("injected panic did not surface as an error")
	}
	var pe *ShardPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ShardPanicError, got %T: %v", err, err)
	}
	if pe.Value != "injected consumer fault" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if panicUser < pe.UserLo || panicUser >= pe.UserHi {
		t.Fatalf("shard user range [%d,%d) does not contain panicking user %d",
			pe.UserLo, pe.UserHi, panicUser)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("users [%d,%d)", pe.UserLo, pe.UserHi)) {
		t.Fatalf("error lacks user-range attribution: %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("no stack captured")
	}
}

// Sibling shards observe the cancellation triggered by a fault: they
// stop early instead of generating their full ranges.
func TestGenerateParallelCtxSiblingsCancelled(t *testing.T) {
	sim := NewSim(DefaultScenario(4_000))
	from, to := AnalysisWeek()

	var full int64
	sim.Benign.Generate(from, to, func(telemetry.Observation) { full++ })

	var seen atomic.Int64
	err := exportBenign(t, context.Background(), sim, from, to, 4, func(emit telemetry.EmitFunc) telemetry.EmitFunc {
		first := true
		return func(o telemetry.Observation) {
			seen.Add(1)
			if first {
				first = false
				panic("fail fast")
			}
			emit(o)
		}
	})
	var pe *ShardPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ShardPanicError, got %v", err)
	}
	// All four shards die on their first observation batch; the run
	// must emit a small fraction of the full stream, not most of it.
	if seen.Load() > full/2 {
		t.Fatalf("siblings kept generating after fault: %d of %d observations", seen.Load(), full)
	}
}

// External cancellation stops generation within one (user, day) batch
// and propagates context.Canceled.
func TestGenerateParallelCtxCancellation(t *testing.T) {
	sim := NewSim(DefaultScenario(4_000))
	from, to := AnalysisWeek()

	var full int64
	sim.Benign.Generate(from, to, func(telemetry.Observation) { full++ })

	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	err := exportBenign(t, ctx, sim, from, to, 4, func(emit telemetry.EmitFunc) telemetry.EmitFunc {
		return func(o telemetry.Observation) {
			if seen.Add(1) == 100 {
				cancel()
			}
			emit(o)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if seen.Load() > full/2 {
		t.Fatalf("cancellation ignored: %d of %d observations generated", seen.Load(), full)
	}
}

// An already-cancelled context generates nothing.
func TestGenerateParallelCtxPreCancelled(t *testing.T) {
	sim := NewSim(DefaultScenario(500))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var seen atomic.Int64
	err := exportBenign(t, ctx, sim, 84, 84, 2, func(emit telemetry.EmitFunc) telemetry.EmitFunc {
		return func(o telemetry.Observation) {
			seen.Add(1)
			emit(o)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if seen.Load() != 0 {
		t.Fatalf("pre-cancelled run emitted %d observations", seen.Load())
	}
}

// The serial ctx variants mirror their errorless counterparts.
func TestGenerateCtxMatchesGenerate(t *testing.T) {
	sim := NewSim(DefaultScenario(500))
	var a, b int
	sim.Generate(84, 85, func(telemetry.Observation) { a++ })
	if err := sim.GenerateCtx(context.Background(), 84, 85, func(telemetry.Observation) { b++ }); err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("GenerateCtx emitted %d observations, Generate %d", b, a)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 0
	if err := sim.GenerateCtx(ctx, simtime.Day(84), simtime.Day(85), func(telemetry.Observation) { n++ }); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n != 0 {
		t.Fatalf("cancelled GenerateCtx emitted %d observations", n)
	}
}
