package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(43)
	same := 0
	a.Seed(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal values", same)
	}
}

func TestSeedResets(t *testing.T) {
	s := New(7)
	first := []uint64{s.Uint64(), s.Uint64(), s.Uint64()}
	s.Seed(7)
	for i, want := range first {
		if got := s.Uint64(); got != want {
			t.Fatalf("after reseed, value %d = %d, want %d", i, got, want)
		}
	}
}

func TestZeroSourceUsable(t *testing.T) {
	var s Source
	// Must not panic; draws from the zero state.
	_ = s.Uint64()
	_ = s.Float64()
}

func TestDeriveIndependence(t *testing.T) {
	s1 := Derive(1, "population")
	s2 := Derive(1, "abuse")
	s3 := Derive(2, "population")
	if s1 == s2 || s1 == s3 || s2 == s3 {
		t.Fatal("derived seeds collide")
	}
	if Derive(1, "population") != s1 {
		t.Fatal("Derive not deterministic")
	}
	if DeriveN(1, 5) == DeriveN(1, 6) || DeriveN(1, 5) != DeriveN(1, 5) {
		t.Fatal("DeriveN broken")
	}
}

func TestIntnRange(t *testing.T) {
	s := New(1)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	s := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(5)
	if s.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %v", p)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("variance = %v", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(17)
	for _, mean := range []float64{0.5, 3, 20, 100} {
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += s.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, got)
		}
	}
	if s.Poisson(0) != 0 || s.Poisson(-1) != 0 {
		t.Error("Poisson of non-positive mean should be 0")
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(19)
	p := 0.25
	const n = 100000
	sum := 0
	for i := 0; i < n; i++ {
		sum += s.Geometric(p)
	}
	want := (1 - p) / p // mean failures before success
	if got := float64(sum) / n; math.Abs(got-want) > 0.1 {
		t.Fatalf("Geometric(%v) mean = %v, want %v", p, got, want)
	}
	if s.Geometric(1) != 0 {
		t.Fatal("Geometric(1) should be 0")
	}
}

func TestWeightedChoice(t *testing.T) {
	s := New(31)
	weights := []float64{1, 0, 3, -2, 6}
	const n = 100000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[s.WeightedChoice(weights)]++
	}
	if counts[1] != 0 || counts[3] != 0 {
		t.Fatal("zero/negative weights were chosen")
	}
	if !(counts[4] > counts[2] && counts[2] > counts[0]) {
		t.Fatalf("weights not respected: %v", counts)
	}
	if got := float64(counts[4]) / n; math.Abs(got-0.6) > 0.01 {
		t.Fatalf("weight-6 share = %v, want ~0.6", got)
	}
	if s.WeightedChoice([]float64{0, 0}) != 0 {
		t.Fatal("all-zero weights should return 0")
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(41)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = s.LogNormal(2, 0.5)
	}
	// Median of LogNormal(mu, sigma) is exp(mu).
	below := 0
	want := math.Exp(2)
	for _, v := range vals {
		if v < want {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("fraction below exp(mu) = %v, want ~0.5", frac)
	}
}

// Property: Uint64n(n) < n for all n > 0.
func TestUint64nBoundProperty(t *testing.T) {
	s := New(43)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return s.Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkPoisson(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Poisson(8)
	}
}
