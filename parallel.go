package userv6

// Parallel generation: because telemetry is a pure function of (user,
// day), disjoint user ranges generate concurrently with zero
// coordination, and the mergeable analyzers fold shard results together.
// This is the throughput path for large populations.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"userv6/internal/core"
	"userv6/internal/netaddr"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// ShardPanicError reports a panic recovered inside one generation
// shard, attributing the fault to the shard's user-index range so a
// bad user record (or a buggy consumer) can be localized without
// taking down the run.
type ShardPanicError struct {
	Shard          int
	UserLo, UserHi int // user-index range [UserLo, UserHi) of the shard
	Value          any // the recovered panic value
	Stack          []byte
}

func (e *ShardPanicError) Error() string {
	return fmt.Sprintf("userv6: generation shard %d (users [%d,%d)) panicked: %v",
		e.Shard, e.UserLo, e.UserHi, e.Value)
}

// GenerateParallelCtx streams benign telemetry for days [from, to]
// across shards goroutines (0 means GOMAXPROCS), with cancellation and
// fault isolation. newConsumer is called once per shard to create that
// shard's consumer; consumers never see another shard's observations,
// so they need no locking.
//
// Each shard checks ctx between (user, day) batches, so cancellation —
// external or triggered by a sibling's failure — stops the run within
// one batch. A panic in a shard (generator or consumer) is recovered,
// converted into a *ShardPanicError naming the shard's user range, and
// cancels the remaining shards. The first real fault wins: cancellation
// noise from siblings never masks the error that caused it. A nil
// return means every shard completed.
//
// Abusive telemetry is not included: attacker volume is small enough to
// stream serially afterwards.
func (s *Sim) GenerateParallelCtx(ctx context.Context, from, to simtime.Day, shards int, newConsumer func() telemetry.EmitFunc) error {
	return s.GenerateParallelRangesCtx(ctx, from, to, shards, func(_, _, _ int) telemetry.EmitFunc {
		return newConsumer()
	})
}

// ShardRanges returns the contiguous user-index ranges [lo, hi) that
// GenerateParallelRangesCtx assigns to each shard for the given shard
// count (0 means GOMAXPROCS, clamped to the population size). Sharded
// sinks use it to size manifests before generation starts.
func (s *Sim) ShardRanges(shards int) [][2]int {
	users := len(s.Pop.Users)
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > users {
		shards = users
	}
	var out [][2]int
	if shards == 0 {
		return out
	}
	per := (users + shards - 1) / shards
	for sh := 0; sh < shards; sh++ {
		lo := sh * per
		hi := min(lo+per, users)
		if lo >= hi {
			break
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// GenerateParallelRangesCtx is GenerateParallelCtx with the shard's
// identity exposed: newConsumer receives the shard index and its
// user-index range [lo, hi), which per-shard sinks (sharded dataset
// part files, manifest bookkeeping) need to label their output.
// Factories run serially, in shard order, before any generation
// starts, so they may append to shared state without locking.
func (s *Sim) GenerateParallelRangesCtx(ctx context.Context, from, to simtime.Day, shards int, newConsumer func(shard, lo, hi int) telemetry.EmitFunc) error {
	return s.GenerateParallelSinksCtx(ctx, from, to, shards, func(sh, lo, hi int) (telemetry.EmitFunc, func(error) error) {
		return newConsumer(sh, lo, hi), nil
	})
}

// GenerateParallelSinksCtx is GenerateParallelRangesCtx for sinks with
// per-shard completion work: newSink returns the shard's emit func plus
// an optional done hook. done runs on the shard's goroutine as soon as
// that shard's user range finishes generating — before sibling shards
// complete — receiving the shard's generation error (nil on success,
// including the factory-serial guarantee: a done hook may not touch
// shared state without locking). The error done returns replaces the
// shard's result, so a sink can finalize its output file the moment its
// range is done and surface finalization failures with the same
// first-fault-wins semantics as generation errors. A shard whose
// generation was cancelled still gets its done(err) call, letting sinks
// flush what they hold.
func (s *Sim) GenerateParallelSinksCtx(ctx context.Context, from, to simtime.Day, shards int, newSink func(shard, lo, hi int) (telemetry.EmitFunc, func(error) error)) error {
	ranges := s.ShardRanges(shards)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
	)
	report := func(err error) {
		if err == nil {
			return
		}
		mu.Lock()
		if firstErr == nil || (isCancellation(firstErr) && !isCancellation(err)) {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	var wg sync.WaitGroup
	for sh, r := range ranges {
		lo, hi := r[0], r[1]
		emit, done := newSink(sh, lo, hi)
		wg.Add(1)
		go func(sh, lo, hi int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					report(&ShardPanicError{Shard: sh, UserLo: lo, UserHi: hi,
						Value: v, Stack: debug.Stack()})
				}
			}()
			err := s.Benign.GenerateUsersCtx(ctx, lo, hi, from, to, emit)
			if done != nil {
				err = done(err)
			}
			report(err)
		}(sh, lo, hi)
	}
	wg.Wait()
	return firstErr
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// GenerateParallel is the errorless variant of GenerateParallelCtx,
// kept for callers with nowhere to route an error. It never cancels;
// a shard panic is re-raised in the caller's goroutine (the pre-context
// behavior, minus the torn-down sibling goroutines).
func (s *Sim) GenerateParallel(from, to simtime.Day, shards int, newConsumer func() telemetry.EmitFunc) {
	if err := s.GenerateParallelCtx(context.Background(), from, to, shards, newConsumer); err != nil {
		// Background context never cancels, so the only possible error
		// is a recovered shard panic.
		panic(err)
	}
}

// AnalyzeParallelCtx populates an AnalyzerSet from freshly generated
// telemetry for days [from, to], fanning generation across shards
// goroutines (0 means GOMAXPROCS). Each generation shard — a disjoint
// user range — feeds a private replica of every registered analyzer, so
// no analyzer state crosses goroutines; the replicas fold into the
// set's primaries when every shard completes. The benign stream runs
// sharded; abusive telemetry (when includeAbusive is set) streams
// serially into the folded primaries afterwards, mirroring Generate's
// ordering. On
// error — cancellation or a *ShardPanicError — the set's primaries are
// left unfolded.
func (s *Sim) AnalyzeParallelCtx(ctx context.Context, from, to simtime.Day, shards int, set *core.AnalyzerSet, includeAbusive bool) error {
	var replicas []*core.Replica
	// Consumer factories run serially before generation starts, so the
	// append needs no lock.
	err := s.GenerateParallelCtx(ctx, from, to, shards, func() telemetry.EmitFunc {
		r := set.NewReplica()
		replicas = append(replicas, r)
		return r.Emit()
	})
	if err != nil {
		return err
	}
	set.Fold(replicas...)
	if includeAbusive {
		s.Abusive.Generate(from, to, set.Emit())
	}
	return nil
}

// Fig2Parallel computes the Figure 2 histograms using sharded
// generation and merged analyzers — identical results to Fig2, faster
// on multicore machines.
func (s *Sim) Fig2Parallel(shards int) AddrsPerUserResult {
	from, to := AnalysisWeek()
	set := core.NewAnalyzerSet()
	mkUC := func() *core.UserCentric { return core.NewUserCentricFor(false) }
	week := mkUC()
	core.AddCommutativeAnalyzer(set, week, mkUC, (*core.UserCentric).Merge)
	day := mkUC()
	core.AddCommutativeAnalyzerFiltered(set, day, mkUC, (*core.UserCentric).Merge,
		func(o telemetry.Observation) bool { return o.Day == to })

	// Background context never cancels, so the only possible error is a
	// recovered shard panic; re-raise it like GenerateParallel.
	if err := s.AnalyzeParallelCtx(context.Background(), from, to, shards, set, false); err != nil {
		panic(err)
	}
	return AddrsPerUserResult{
		DayV4:    day.AddrsPerUser(netaddr.IPv4),
		DayV6:    day.AddrsPerUser(netaddr.IPv6),
		WeekV4:   week.AddrsPerUser(netaddr.IPv4),
		WeekV6:   week.AddrsPerUser(netaddr.IPv6),
		Entities: week.Users(),
	}
}

// IPCentricParallel computes users-per-prefix at one granularity with
// sharded generation and merged analyzers.
func (s *Sim) IPCentricParallel(fam netaddr.Family, length, shards int) *core.IPCentric {
	from, to := AnalysisWeek()
	set := core.NewAnalyzerSet()
	mk := func() *core.IPCentric { return core.NewIPCentric(fam, length) }
	out := mk()
	core.AddCommutativeAnalyzer(set, out, mk, (*core.IPCentric).Merge)
	if err := s.AnalyzeParallelCtx(context.Background(), from, to, shards, set, true); err != nil {
		panic(err)
	}
	return out
}
