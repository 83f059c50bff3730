package userv6

// Parallel generation: because telemetry is a pure function of (user,
// day), disjoint user ranges generate concurrently with zero
// coordination. A sharded export (ExportShardedFS) and its resume fill
// every part of their manifest on a goroutine of its own; this is the
// throughput path for large populations.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// ShardPanicError reports a panic recovered while filling one part of
// a sharded export or resume, attributing the fault to the part's
// user-index range so a bad user record (or a buggy consumer) can be
// localized without taking down the run.
type ShardPanicError struct {
	Shard          int // index of the part in the manifest
	UserLo, UserHi int // user-index range [UserLo, UserHi) of the part; empty for the abusive part
	Value          any // the recovered panic value
	Stack          []byte
}

func (e *ShardPanicError) Error() string {
	return fmt.Sprintf("userv6: generation shard %d (users [%d,%d)) panicked: %v",
		e.Shard, e.UserLo, e.UserHi, e.Value)
}

// ShardRanges returns the contiguous user-index ranges [lo, hi) of the
// benign parts a sharded export writes for the given shard count (0
// means GOMAXPROCS, clamped to the population size). ExportShardedFS
// lays out its provisional manifest from them before generation starts.
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

// fillParts runs fill for every part of the run's manifest, each part
// on a goroutine of its own. The first real error wins: it cancels
// the context the siblings fill under, so they stop within one (user,
// day) batch, and their cancellation errors never mask it. A panic
// inside a part is recovered as a *ShardPanicError naming the part's
// user range. A nil return means every part was filled.
func (r *shardedRun) fillParts(ctx context.Context, fill func(ctx context.Context, i int) error) error {
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
	for i := range r.man.Parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					p := r.man.Parts[i]
					report(&ShardPanicError{Shard: i, UserLo: p.UserLo, UserHi: p.UserHi,
						Value: v, Stack: debug.Stack()})
				}
			}()
			report(fill(ctx, i))
		}(i)
	}
	wg.Wait()
	return firstErr
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
