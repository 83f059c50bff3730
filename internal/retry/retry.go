// Package retry is the one backoff policy in the tree: capped
// exponential backoff with deterministic jitter, aborted promptly when
// the caller's context is cancelled.
//
// Every component that retries transient failures — the merge engine
// re-reading a glitching part file, the CLI re-attempting a manifest
// write — goes through Policy.Do, so backoff behavior is tuned (and
// tested) in exactly one place. Jitter is seeded through internal/rng
// and derived from a per-call-site label, which keeps concurrent
// retriers (e.g. shard merges hitting the same filesystem) from
// thundering in lockstep while leaving every schedule reproducible:
// the same seed and label always sleep the same durations. Jitter
// shapes only the waiting, never the work, so retried operations stay
// byte-identical to un-retried ones.
package retry

import (
	"context"
	"errors"
	"fmt"
	"time"

	"userv6/internal/rng"
)

// Defaults applied by Policy.withDefaults for zero fields.
const (
	DefaultMaxRetries = 3
	DefaultBase       = 50 * time.Millisecond
	DefaultMax        = 2 * time.Second
)

// NoRetries, as a Policy's MaxRetries, makes Do attempt once and never
// retry: a MaxRetries of 0 means DefaultMaxRetries.
const NoRetries = -1

// Policy describes one capped-exponential-backoff schedule. The zero
// Policy is valid and uses the package defaults with jitter enabled.
type Policy struct {
	// MaxRetries is how many times the operation is re-attempted after
	// the first failure: 0 means the default 3, and a negative value,
	// such as NoRetries, none. A Do call makes at most Budget()+1
	// attempts.
	MaxRetries int
	// Base is the first backoff interval (default 50ms); each retry
	// doubles it, capped at Max (default 2s).
	Base time.Duration
	Max  time.Duration
	// Seed feeds the deterministic jitter stream. Two policies with the
	// same Seed sleep identical schedules for the same label, so runs
	// stay reproducible; distinct labels decorrelate concurrent
	// retriers.
	Seed uint64
	// NoJitter disables jitter, producing the exact base-doubling
	// schedule — for tests that assert sleep durations.
	NoJitter bool
	// Sleep, when non-nil, replaces the real context-aware sleep: the
	// injected clock for tests. It must return ctx.Err() if the context
	// is done before the duration elapses.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p Policy) withDefaults() Policy {
	switch {
	case p.MaxRetries == 0:
		p.MaxRetries = DefaultMaxRetries
	case p.MaxRetries < 0:
		p.MaxRetries = 0
	}
	if p.Base <= 0 {
		p.Base = DefaultBase
	}
	if p.Max <= 0 {
		p.Max = DefaultMax
	}
	if p.Sleep == nil {
		p.Sleep = sleep
	}
	return p
}

// Budget returns how many re-attempts p allows after a first failure.
func (p Policy) Budget() int { return p.withDefaults().MaxRetries }

// sleep is the real clock: a timer raced against ctx.Done, so a
// cancelled caller never waits out a backoff interval.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Policy.Do fails immediately instead of
// retrying — for failures waiting cannot fix (a missing file, a parse
// error). Do unwraps the marker before returning, so callers see the
// original error.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// Do runs fn until it succeeds, returns a Permanent error, exhausts
// MaxRetries, or the context is cancelled mid-backoff. label names the
// call site ("merge-read part-0001.uv6"): it seeds the jitter stream
// and appears in the exhaustion error. The returned count is the number
// of retries performed (0 when the first attempt settled the matter).
func (p Policy) Do(ctx context.Context, label string, fn func() error) (retries int, err error) {
	p = p.withDefaults()
	var src *rng.Source
	if !p.NoJitter {
		src = rng.New(rng.Derive(p.Seed, "retry:"+label))
	}
	backoff := p.Base
	for attempt := 0; ; attempt++ {
		err = fn()
		if err == nil {
			return attempt, nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return attempt, pe.err
		}
		if err2 := ctx.Err(); err2 != nil {
			return attempt, err2
		}
		if attempt >= p.MaxRetries {
			return attempt, fmt.Errorf("retry: %s: after %d retries: %w", label, attempt, err)
		}
		if serr := p.Sleep(ctx, jitter(backoff, p.NoJitter, src)); serr != nil {
			return attempt, serr
		}
		backoff *= 2
		if backoff > p.Max {
			backoff = p.Max
		}
	}
}

// jitter applies equal-jitter to a backoff interval: half the interval
// held, half redrawn uniformly — enough spread to break retry herds
// while keeping every wait within [d/2, d].
func jitter(d time.Duration, off bool, src *rng.Source) time.Duration {
	if off || d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(src.Uint64n(uint64(d-half)+1))
}
