package core

// Analyzer sets: an AnalyzerSet names the analyzers a run wants
// populated. A feed in memory (userv6.Paper's pass) feeds the registered
// primaries directly; an analysis of stored data gives each decode
// worker a Replica of every analyzer, feeds it an arbitrary share of the
// stream, and folds the replicas back into the primaries with the
// analyzers' Merge methods. Both leave the primaries holding identical
// state, because every registration declares a commutative Merge.

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"

	"userv6/internal/telemetry"
)

// Observer is the streaming-analyzer interface every core analyzer
// satisfies: consume one observation, answer queries later.
type Observer interface {
	Observe(telemetry.Observation)
}

// AnalyzerSet is a named collection of analyzers to populate from one
// pass over a telemetry stream. Register each analyzer with
// AddCommutativeAnalyzer, then either feed the set directly (in memory)
// or feed Replicas and Fold them (stored data); both leave the
// registered primaries holding identical state.
//
// Every registration is commutative: its state must not depend on
// observation order, on how the stream is split across replicas, or on
// how a sighting's requests are split across records. A
// new analyzer that looks order-dependent is reformulated as a
// commutative fold, as ChurnAttribution was (min-first-sight tuples
// instead of a walk over consecutive observations), rather than by
// adding an order-preserving execution mode.
type AnalyzerSet struct {
	regs []registration
}

type registration struct {
	primary Observer
	mk      func() Observer
	fold    func(replica Observer)
	filter  func(telemetry.Observation) bool
}

// NewAnalyzerSet returns an empty set.
func NewAnalyzerSet() *AnalyzerSet { return &AnalyzerSet{} }

// Len returns the number of registered analyzers.
func (s *AnalyzerSet) Len() int { return len(s.regs) }

// AddCommutativeAnalyzer registers primary with the set. mk constructs
// a fresh replica configured identically to primary (same restriction,
// window, prefix lengths, ...); fold merges a replica's state into the
// first argument — an analyzer's Merge method expression, e.g.
// (*UserCentric).Merge, fits directly. fold may take ownership of
// from's state (the default analyzers' Merge swaps in the larger
// state), so a replica is not used again once folded.
//
// Registering declares that the analyzer's accumulated state is
// invariant under observation order and under how the stream is
// partitioned across replicas before folding. Concretely, feeding any
// permutation of the same multiset of observations — or splitting it
// arbitrarily (not just user-disjointly) across replicas and folding —
// must leave state identical to the in-order sequential feed. Analysis
// of stored data relies on it: every decode worker feeds a replica.
// Analyzers whose state is a pure set- or lattice-fold qualify. The
// default five keep a user table (per user, the distinct addresses or
// prefixes seen, each with a value): UserCentric each user's address
// sets and IPCentric each user's prefix set and label, both united by
// Merge; Lifespans min/OR folds of each pair's days; ChurnAttribution
// min-day first-sight tuples; and Prevalence OR-folded sighting masks.
// Their cross-user answers (prefix populations, pair counts, ASN and
// country users) are counted when queried; the one cross-user state
// kept is Prevalence's per-day request sums. The table is pooled
// and holds no pointer the GC would trace per user or key: user IDs map
// to indexes into chunks of by-value states, and each key list is a
// handle into a per-field pool of key and value chunks. An address or
// prefix key is the masked prefix's two 64-bit words, the family coming
// from the pool, and a day is stored as an int32. Their Merge
// adopts the replica's chunks whole, rebases the handles of the
// replica's users, takes over the users only the replica holds and
// combines the users both hold: O(chunks + users), not O(keys). An
// analyzer that inspects transitions between consecutive observations
// at Observe time would not qualify.
//
// Registering also declares that the state is invariant under how a
// sighting's requests are split across records: replacing a record
// with several that share its day, user, address, ASN, country and
// label, and whose requests sum to its own, must leave state
// identical. userv6.ExecutePlan relies on it, as it coalesces each
// decoded block (telemetry.Coalesce) before the analyzers see it.
// Sets, min/OR folds and request sums qualify; an analyzer that counts
// records would not. TestMergeLaws checks this rule, with the Merge
// laws, for every analyzer type of this package that can be registered.
func AddCommutativeAnalyzer[T Observer](s *AnalyzerSet, primary T, mk func() T, fold func(into, from T)) {
	AddCommutativeAnalyzerFiltered(s, primary, mk, fold, nil)
}

// AddCommutativeAnalyzerFiltered is AddCommutativeAnalyzer with a
// pre-filter: only observations for which filter returns true reach
// this analyzer (nil accepts everything). The filter runs on worker
// goroutines and must be pure; a pure filter preserves commutativity
// (it only thins the multiset). It must not read Requests: deciding on
// the sighting alone keeps or drops all records of a sighting alike,
// however its requests are split.
//
// Registering the same primary twice panics: its state would be fed
// (and folded) twice, and the concurrent Fold would race on it.
func AddCommutativeAnalyzerFiltered[T Observer](s *AnalyzerSet, primary T, mk func() T, fold func(into, from T), filter func(telemetry.Observation) bool) {
	for _, r := range s.regs {
		if samePrimary(r.primary, primary) {
			panic(fmt.Sprintf("core: primary %T registered twice with one AnalyzerSet; each analyzer must be registered once", primary))
		}
	}
	s.regs = append(s.regs, registration{
		primary: primary,
		mk:      func() Observer { return mk() },
		fold:    func(replica Observer) { fold(primary, replica.(T)) },
		filter:  filter,
	})
}

// samePrimary reports whether a and b are the same analyzer. Only a
// pointer can be shared; a value-typed primary is always a fresh copy.
func samePrimary(a, b Observer) bool {
	return reflect.ValueOf(a).Kind() == reflect.Pointer && a == b
}

// Observe feeds one observation to every registered primary directly —
// the feed in memory, and the reference every replica fold must match.
func (s *AnalyzerSet) Observe(o telemetry.Observation) {
	for i := range s.regs {
		r := &s.regs[i]
		if r.filter == nil || r.filter(o) {
			r.primary.Observe(o)
		}
	}
}

// Replica is an independent copy of every registered analyzer. Each
// decode worker of an analysis feeds its own Replica with no locking,
// and Fold merges them back into the primaries.
type Replica struct {
	set *AnalyzerSet
	obs []Observer
}

// NewReplica constructs a fresh replica of every registered analyzer.
// Call it (and Fold) from one goroutine; the Replica itself is then
// free to live on another until it is folded.
func (s *AnalyzerSet) NewReplica() *Replica {
	r := &Replica{set: s, obs: make([]Observer, len(s.regs))}
	for i := range s.regs {
		r.obs[i] = s.regs[i].mk()
	}
	return r
}

// Observe feeds one observation to the replica's analyzers.
func (r *Replica) Observe(o telemetry.Observation) {
	for i, rep := range r.obs {
		if f := r.set.regs[i].filter; f == nil || f(o) {
			rep.Observe(o)
		}
	}
}

// Fold merges the replicas' state into the set's primaries and consumes
// the replicas: they must not be observed or folded again. The
// registration contract makes the fold exact for any split of the
// stream across replicas, user-disjoint or not.
//
// Registrations fold concurrently, one goroutine each and at most
// GOMAXPROCS at a time; each folds its replicas in argument order. That
// is safe because each primary is registered once. A panic in a fold is
// re-raised on the caller's goroutine once every fold has returned (the
// lowest-indexed registration's, if several panic).
func (s *AnalyzerSet) Fold(replicas ...*Replica) {
	panics := make([]any, len(s.regs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for j := range s.regs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() {
				panics[j] = recover()
				<-sem
				wg.Done()
			}()
			for _, r := range replicas {
				s.regs[j].fold(r.obs[j])
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
