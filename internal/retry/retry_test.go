package retry

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestDoSchedule: with jitter off and an injected clock, Do sleeps the
// exact base-doubling schedule capped at Max and stops after
// MaxRetries.
func TestDoSchedule(t *testing.T) {
	var slept []time.Duration
	p := Policy{
		MaxRetries: 3, Base: 10 * time.Millisecond, Max: 15 * time.Millisecond,
		NoJitter: true,
		Sleep:    func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil },
	}
	boom := errors.New("boom")
	retries, err := p.Do(context.Background(), "t", func() error { return boom })
	if retries != 3 || !errors.Is(err, boom) {
		t.Fatalf("retries=%d err=%v", retries, err)
	}
	// 10ms, then min(20, 15), then the cap again.
	want := []time.Duration{10 * time.Millisecond, 15 * time.Millisecond, 15 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("slept %v, want %v", slept, want)
		}
	}
}

// TestDoSucceedsAfterTransient: a failure that clears is retried and
// the retry count reports how many attempts it took.
func TestDoSucceedsAfterTransient(t *testing.T) {
	n := 0
	p := Policy{NoJitter: true, Sleep: func(context.Context, time.Duration) error { return nil }}
	retries, err := p.Do(context.Background(), "t", func() error {
		n++
		if n < 3 {
			return fmt.Errorf("transient %d", n)
		}
		return nil
	})
	if err != nil || retries != 2 {
		t.Fatalf("retries=%d err=%v", retries, err)
	}
}

// TestDoPermanent: a Permanent error fails immediately and is unwrapped
// back to the original.
func TestDoPermanent(t *testing.T) {
	boom := errors.New("gone")
	p := Policy{Sleep: func(context.Context, time.Duration) error {
		t.Fatal("permanent error slept")
		return nil
	}}
	retries, err := p.Do(context.Background(), "t", func() error { return Permanent(boom) })
	if retries != 0 || err != boom {
		t.Fatalf("retries=%d err=%v", retries, err)
	}
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) != nil")
	}
}

// TestDoCancelledMidBackoff: cancellation during a backoff sleep aborts
// Do with the context error instead of blocking out the interval —
// the regression the shared policy exists to prevent.
func TestDoCancelledMidBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxRetries: 10, Base: time.Hour, NoJitter: true}
	start := time.Now()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := p.Do(ctx, "t", func() error { return errors.New("always") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled Do blocked %v", elapsed)
	}
}

// TestDoAlreadyCancelled: a context cancelled before Do is called makes
// one attempt (the operation may succeed without waiting) but never
// sleeps.
func TestDoAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	p := Policy{Sleep: func(context.Context, time.Duration) error {
		t.Fatal("slept under a dead context")
		return nil
	}}
	_, err := p.Do(ctx, "t", func() error { calls++; return errors.New("x") })
	if calls != 1 || !errors.Is(err, context.Canceled) {
		t.Fatalf("calls=%d err=%v", calls, err)
	}
	if _, err := p.Do(ctx, "t", func() error { calls++; return nil }); err != nil {
		t.Fatalf("successful op under dead context err=%v", err)
	}
}

// TestJitterDeterministicAndBounded: the same (seed, label) yields the
// same schedule; different labels diverge; every jittered wait stays in
// [d/2, d].
func TestJitterDeterministicAndBounded(t *testing.T) {
	schedule := func(seed uint64, label string) []time.Duration {
		var slept []time.Duration
		p := Policy{
			MaxRetries: 6, Base: 8 * time.Millisecond, Max: 500 * time.Millisecond, Seed: seed,
			Sleep: func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil },
		}
		p.Do(context.Background(), label, func() error { return errors.New("x") })
		return slept
	}
	a, b := schedule(7, "merge"), schedule(7, "merge")
	if len(a) != 6 {
		t.Fatalf("schedule length %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed+label diverged: %v vs %v", a, b)
		}
	}
	c := schedule(7, "manifest")
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different labels produced identical jitter")
	}
	base := 8 * time.Millisecond
	for i, d := range a {
		lo := base / 2
		if d < lo || d > base {
			t.Fatalf("wait %d = %v outside [%v, %v]", i, d, lo, base)
		}
		base *= 2
		if base > 500*time.Millisecond {
			base = 500 * time.Millisecond
		}
	}
}

// TestNoRetries: a NoRetries policy attempts once, never sleeps, and
// reports the failure after 0 retries; the zero MaxRetries still means
// the default budget.
func TestNoRetries(t *testing.T) {
	slept := 0
	p := Policy{MaxRetries: NoRetries, Sleep: func(context.Context, time.Duration) error { slept++; return nil }}
	attempts := 0
	boom := errors.New("boom")
	retries, err := p.Do(context.Background(), "t", func() error { attempts++; return boom })
	if attempts != 1 || slept != 0 || retries != 0 || !errors.Is(err, boom) || !strings.Contains(err.Error(), "after 0 retries") {
		t.Fatalf("%d attempts, %d sleeps, %d retries, err %v; want one attempt failing after 0 retries", attempts, slept, retries, err)
	}
	for _, c := range []struct{ max, budget int }{{0, DefaultMaxRetries}, {NoRetries, 0}, {-5, 0}, {2, 2}} {
		if got := (Policy{MaxRetries: c.max}).Budget(); got != c.budget {
			t.Errorf("MaxRetries %d: Budget() = %d, want %d", c.max, got, c.budget)
		}
	}
}
