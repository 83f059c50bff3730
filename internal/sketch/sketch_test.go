package sketch

import (
	"math"
	"testing"
	"testing/quick"

	"userv6/internal/rng"
)

func TestHLLPrecisionValidation(t *testing.T) {
	for _, p := range []uint8{0, 3, 17, 200} {
		if _, err := NewHLL(p); err == nil {
			t.Errorf("NewHLL(%d) succeeded", p)
		}
	}
	if _, err := NewHLL(12); err != nil {
		t.Fatal(err)
	}
}

func TestHLLAccuracy(t *testing.T) {
	for _, n := range []int{10, 100, 1000, 100000} {
		h := MustNewHLL(12)
		src := rng.New(uint64(n))
		seen := make(map[uint64]bool, n)
		for len(seen) < n {
			k := src.Uint64()
			seen[k] = true
			h.Add(k)
			h.Add(k) // duplicates must not inflate
		}
		est := h.Estimate()
		relErr := math.Abs(est-float64(n)) / float64(n)
		// p=12 gives ~1.6% standard error; allow 5 sigma.
		if relErr > 0.08 {
			t.Errorf("n=%d: estimate %.0f, rel err %.3f", n, est, relErr)
		}
	}
}

func TestHLLEmpty(t *testing.T) {
	h := MustNewHLL(10)
	if est := h.Estimate(); est != 0 {
		t.Fatalf("empty estimate = %v", est)
	}
}

// Property: HLL estimate is invariant under duplicate insertion order.
func TestHLLDuplicateInvariance(t *testing.T) {
	f := func(keys []uint64) bool {
		a, b := MustNewHLL(8), MustNewHLL(8)
		for _, k := range keys {
			a.Add(k)
		}
		for i := len(keys) - 1; i >= 0; i-- {
			b.Add(keys[i])
			b.Add(keys[i])
		}
		return a.Estimate() == b.Estimate()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCountMinNeverUndercounts(t *testing.T) {
	cm := MustNewCountMin(512, 4)
	src := rng.New(4)
	truth := make(map[uint64]uint64)
	for i := 0; i < 20000; i++ {
		k := src.Uint64n(2000)
		truth[k]++
		cm.Add(k, 1)
	}
	for k, want := range truth {
		if got := cm.Count(k); got < want {
			t.Fatalf("undercounted key %d: %d < %d", k, got, want)
		}
	}
}

func TestCountMinAccuracyOnHeavyKeys(t *testing.T) {
	cm := MustNewCountMin(4096, 4)
	src := rng.New(8)
	const heavy = 42
	for i := 0; i < 100000; i++ {
		cm.Add(src.Uint64n(100000), 1)
	}
	cm.Add(heavy, 50000)
	got := cm.Count(heavy)
	// Expected over-count ≈ total/width ≈ 150000/4096 ≈ 37 per row; min of
	// 4 rows should stay within a small multiple.
	if got < 50000 || got > 50500 {
		t.Fatalf("heavy key count = %d, want ~50000", got)
	}
}

func TestCountMinValidation(t *testing.T) {
	if _, err := NewCountMin(0, 1); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := NewCountMin(1, 0); err == nil {
		t.Fatal("zero depth accepted")
	}
}

func TestSpaceSavingExactWhenUnderCapacity(t *testing.T) {
	s := MustNewSpaceSaving(10)
	freqs := map[uint64]uint64{1: 5, 2: 3, 3: 8}
	for k, n := range freqs {
		s.AddN(k, n)
	}
	for k, want := range freqs {
		got, ok := s.Count(k)
		if !ok || got != want {
			t.Fatalf("Count(%d) = %d,%v want %d", k, got, ok, want)
		}
	}
	top := s.Top(2)
	if len(top) != 2 || top[0].Key != 3 || top[1].Key != 1 {
		t.Fatalf("Top(2) = %+v", top)
	}
	if top[0].Err != 0 {
		t.Fatal("under capacity, error bound should be 0")
	}
}

func TestSpaceSavingFindsHeavyHitters(t *testing.T) {
	s := MustNewSpaceSaving(1000)
	src := rng.New(15)
	// 5 heavy keys at ~1000 each over a noise floor of 100k singletons
	// spread across 1000 slots (floor ~100 per slot).
	for i := 0; i < 100000; i++ {
		s.Add(src.Uint64())
		if i%20 == 0 {
			s.Add(uint64(1 + (i/20)%5))
		}
	}
	top := s.Top(5)
	found := make(map[uint64]bool)
	for _, it := range top {
		found[it.Key] = true
		if it.Count < it.Err {
			t.Fatalf("count %d below error bound %d", it.Count, it.Err)
		}
	}
	for k := uint64(1); k <= 5; k++ {
		if !found[k] {
			t.Fatalf("heavy key %d missing from top: %+v", k, top)
		}
	}
}

// Property: SpaceSaving count upper-bounds the true count, and
// count - err lower-bounds it.
func TestSpaceSavingBoundsProperty(t *testing.T) {
	f := func(stream []uint16) bool {
		s := MustNewSpaceSaving(8)
		truth := make(map[uint64]uint64)
		for _, v := range stream {
			k := uint64(v % 64)
			truth[k]++
			s.Add(k)
		}
		for _, it := range s.Top(8) {
			actual := truth[it.Key]
			if it.Count < actual || it.Count-it.Err > actual {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceSavingValidation(t *testing.T) {
	if _, err := NewSpaceSaving(0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	s := MustNewSpaceSaving(2)
	if _, ok := s.Count(99); ok {
		t.Fatal("absent key reported present")
	}
	if got := s.Top(5); len(got) != 0 {
		t.Fatalf("Top on empty = %v", got)
	}
}

func BenchmarkHLLAdd(b *testing.B) {
	h := MustNewHLL(12)
	for i := 0; i < b.N; i++ {
		h.Add(uint64(i))
	}
}

func BenchmarkSpaceSavingAdd(b *testing.B) {
	s := MustNewSpaceSaving(1024)
	src := rng.New(1)
	keys := make([]uint64, 65536)
	for i := range keys {
		keys[i] = src.Uint64n(1 << 20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(keys[i%len(keys)])
	}
}
