package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// mergeAnalyzer is one default analyzer as the swap tests see it: its
// Merge, its state size (the user count Merge compares before
// swapping), and the name prefix of its digestQueries answers.
type mergeAnalyzer struct {
	name    string
	merge   func(into, from fullAnalyzers)
	size    func(f fullAnalyzers) int
	queries string
}

var mergeAnalyzers = []mergeAnalyzer{
	{"usercentric", func(a, b fullAnalyzers) { a.uc.Merge(b.uc) },
		func(f fullAnalyzers) int { return f.uc.users.len() }, "uc."},
	{"ipcentric", func(a, b fullAnalyzers) { a.ic.Merge(b.ic) },
		func(f fullAnalyzers) int { return f.ic.users.len() }, "ic64."},
	{"churn", func(a, b fullAnalyzers) { a.churn.Merge(b.churn) },
		func(f fullAnalyzers) int { return f.churn.users.len() }, "churn"},
	{"lifespans", func(a, b fullAnalyzers) { a.life.Merge(b.life) },
		func(f fullAnalyzers) int { return f.life.users.len() }, "life."},
	{"prevalence", func(a, b fullAnalyzers) { a.prev.Merge(b.prev) },
		func(f fullAnalyzers) int { return f.prev.users.len() }, "prev."},
}

// TestMergeSwapDirections checks each analyzer's Merge on a skewed
// block-wise split (the first ~10% of the stream against the rest) in
// every direction the size comparison can take: small into large,
// large into small (the swap branch), both halves into an empty
// receiver (two adopts), and an empty other into a full receiver. Each
// must reproduce the sequential feed's full query surface.
func TestMergeSwapDirections(t *testing.T) {
	stream := analysisStream()
	const ref = simtime.Day(7)
	want := sequentialFullSet(stream, ref)
	cut := len(stream) / 10
	feed := func(recs []telemetry.Observation) fullAnalyzers {
		f := fullSet(ref)
		for _, o := range recs {
			f.set.Observe(o)
		}
		return f
	}
	small := func() fullAnalyzers { return feed(stream[:cut]) }
	large := func() fullAnalyzers { return feed(stream[cut:]) }
	empty := func() fullAnalyzers { return fullSet(ref) }
	full := func() fullAnalyzers { return feed(stream) }

	cases := []struct {
		name string
		into func() fullAnalyzers
		from []func() fullAnalyzers
	}{
		{"small into large", large, []func() fullAnalyzers{small}},
		{"large into small", small, []func() fullAnalyzers{large}},
		{"split into empty", empty, []func() fullAnalyzers{small, large}},
		{"empty into full", full, []func() fullAnalyzers{empty}},
	}
	for _, a := range mergeAnalyzers {
		t.Run(a.name, func(t *testing.T) {
			if s, l := a.size(small()), a.size(large()); s == 0 || s >= l {
				t.Fatalf("split not skewed: small holds %d entries, large %d", s, l)
			}
			for _, c := range cases {
				got := c.into()
				for _, from := range c.from {
					a.merge(got, from())
				}
				got.assertSurface(t, want, c.name, a.queries)
			}
		})
	}
}

// foldProbe is a test analyzer counting observations; its fold is
// supplied per registration.
type foldProbe struct{ n int }

func (p *foldProbe) Observe(telemetry.Observation) { p.n++ }

// waitGoroutines polls until at most n goroutines remain: a goroutine
// that has signalled its WaitGroup may still be a moment from exiting.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want at most %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFoldPanicReraised registers one fold that panics among several
// slow ones: Fold must re-raise that panic on the caller's goroutine,
// only after every other registration has finished folding, and leave
// no goroutine behind.
func TestFoldPanicReraised(t *testing.T) {
	before := runtime.NumGoroutine()
	set := NewAnalyzerSet()
	mk := func() *foldProbe { return &foldProbe{} }
	AddCommutativeAnalyzer(set, mk(), mk, func(into, from *foldProbe) { panic("fold boom") })
	var folded atomic.Int32
	const others = 5
	primaries := make([]*foldProbe, others)
	for i := range primaries {
		primaries[i] = mk()
		AddCommutativeAnalyzer(set, primaries[i], mk, func(into, from *foldProbe) {
			time.Sleep(5 * time.Millisecond)
			into.n += from.n
			folded.Add(1)
		})
	}
	replicas := []*Replica{set.NewReplica(), set.NewReplica()}
	for _, r := range replicas {
		r.Observe(telemetry.Observation{})
	}

	got := func() (v any) {
		defer func() { v = recover() }()
		set.Fold(replicas...)
		return nil
	}()
	if got != "fold boom" {
		t.Fatalf("recovered %v, want the fold's panic", got)
	}
	if n := int(folded.Load()); n != others*len(replicas) {
		t.Fatalf("panic surfaced after %d of %d folds", n, others*len(replicas))
	}
	for i, p := range primaries {
		if p.n != len(replicas) {
			t.Fatalf("primary %d holds %d observations, want %d", i, p.n, len(replicas))
		}
	}
	waitGoroutines(t, before)
}

// TestFoldConcurrencyBounded checks that registrations fold at most
// GOMAXPROCS at a time and that every replica still reaches every
// primary.
func TestFoldConcurrencyBounded(t *testing.T) {
	before := runtime.NumGoroutine()
	set := NewAnalyzerSet()
	mk := func() *foldProbe { return &foldProbe{} }
	var running, peak atomic.Int32
	primaries := make([]*foldProbe, 4*runtime.GOMAXPROCS(0)+1)
	for i := range primaries {
		primaries[i] = mk()
		AddCommutativeAnalyzer(set, primaries[i], mk, func(into, from *foldProbe) {
			n := running.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(time.Millisecond)
			into.n += from.n
			running.Add(-1)
		})
	}
	replicas := []*Replica{set.NewReplica(), set.NewReplica(), set.NewReplica()}
	for i, r := range replicas {
		for range i + 1 {
			r.Observe(telemetry.Observation{})
		}
	}
	set.Fold(replicas...)
	if p, limit := peak.Load(), int32(runtime.GOMAXPROCS(0)); p > limit {
		t.Fatalf("%d folds ran at once, GOMAXPROCS is %d", p, limit)
	}
	for i, p := range primaries {
		if p.n != 6 {
			t.Fatalf("primary %d holds %d observations, want 6", i, p.n)
		}
	}
	waitGoroutines(t, before)
}

// TestAddCommutativeAnalyzerRejectsDuplicatePrimary: registering one
// primary twice would feed and fold it twice, so it panics naming the
// problem; a second, distinct primary of the same type is fine.
func TestAddCommutativeAnalyzerRejectsDuplicatePrimary(t *testing.T) {
	set := NewAnalyzerSet()
	mk := func() *Prevalence { return NewPrevalence() }
	p := mk()
	AddCommutativeAnalyzer(set, p, mk, (*Prevalence).Merge)
	AddCommutativeAnalyzer(set, mk(), mk, (*Prevalence).Merge)

	got := func() (v any) {
		defer func() { v = recover() }()
		AddCommutativeAnalyzerFiltered(set, p, mk, (*Prevalence).Merge, nil)
		return nil
	}()
	if msg := fmt.Sprint(got); got == nil || !strings.Contains(msg, "registered twice") {
		t.Fatalf("duplicate registration: recovered %v, want a registered-twice panic", got)
	}
	if set.Len() != 2 {
		t.Fatalf("set holds %d registrations after the refused one, want 2", set.Len())
	}
}
