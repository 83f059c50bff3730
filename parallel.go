package userv6

// Parallel generation: because telemetry is a pure function of (user,
// day), disjoint user ranges generate concurrently with zero
// coordination. The sharded export (ExportShardedFS) streams each range
// into its own part file; this is the throughput path for large
// populations.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

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

// ShardRanges returns the contiguous user-index ranges [lo, hi) that
// GenerateParallelSinksCtx assigns to each shard for the given shard
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

// GenerateParallelSinksCtx streams benign telemetry for days [from, to]
// across shards goroutines (0 means GOMAXPROCS), each generating one
// contiguous ShardRanges user range into its own sink. newSink is
// called serially, in shard order, before any generation starts, so it
// may append to shared state without locking. It returns the shard's
// emit func, which only ever sees that shard's observations, plus an
// optional done hook. done runs on the shard's goroutine as soon as
// that shard's range finishes, before sibling shards complete, so it
// must lock any shared state it touches. It receives the shard's
// generation error (nil on success) and its return value replaces the
// shard's result: a sink can finalize its output file the moment its
// range is done and surface finalization failures like generation
// errors. A shard whose generation was cancelled still gets its
// done(err) call, letting sinks flush what they hold.
//
// Each shard checks ctx between (user, day) batches, so cancellation —
// external or triggered by a sibling's failure — stops the run within
// one batch. A panic in a shard (generator, emit func, or done hook) is
// recovered, converted into a *ShardPanicError naming the shard's user
// range, and cancels the remaining shards. The first real fault wins:
// cancellation noise from siblings never masks the error that caused
// it. A nil return means every shard completed.
//
// Abusive telemetry is not included: attacker volume is small enough to
// stream serially afterwards.
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
