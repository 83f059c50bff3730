package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"userv6/internal/rng"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3, 10})
	cases := []struct{ x, want float64 }{
		{0, 0},
		{1, 0.2},
		{1.5, 0.2},
		{2, 0.6},
		{3, 0.8},
		{9.99, 0.8},
		{10, 1},
		{100, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.N() != 5 {
		t.Fatalf("N = %d", e.N())
	}
	if got := e.Mean(); math.Abs(got-3.6) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if !math.IsNaN(e.At(1)) || !math.IsNaN(e.Quantile(0.5)) || !math.IsNaN(e.Mean()) {
		t.Fatal("empty ECDF should return NaN")
	}
}

func TestECDFQuantile(t *testing.T) {
	e := NewECDF([]float64{5, 1, 3, 2, 4})
	if e.Quantile(0) != 1 || e.Quantile(1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if e.Quantile(0.5) != 3 {
		t.Fatalf("Quantile(0.5) = %v", e.Quantile(0.5))
	}
	if e.Quantile(0.2) != 1 || e.Quantile(0.21) != 2 {
		t.Fatalf("nearest-rank boundary wrong: %v, %v", e.Quantile(0.2), e.Quantile(0.21))
	}
}

func TestECDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	e := NewECDF(in)
	in[0] = 100
	if e.Quantile(1) != 3 {
		t.Fatal("ECDF aliased caller slice")
	}
}

// Property: ECDF is monotone nondecreasing and bounded in [0,1].
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(samples []float64, x1, x2 float64) bool {
		if len(samples) == 0 {
			return true
		}
		for _, s := range samples {
			if math.IsNaN(s) {
				return true
			}
		}
		if math.IsNaN(x1) || math.IsNaN(x2) {
			return true
		}
		e := NewECDF(samples)
		lo, hi := x1, x2
		if lo > hi {
			lo, hi = hi, lo
		}
		a, b := e.At(lo), e.At(hi)
		return a >= 0 && b <= 1 && a <= b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile and At are near-inverses.
func TestQuantileInverseProperty(t *testing.T) {
	src := rng.New(5)
	for trial := 0; trial < 100; trial++ {
		n := 1 + src.Intn(200)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = src.Float64() * 100
		}
		e := NewECDF(samples)
		q := src.Float64()
		v := e.Quantile(q)
		if e.At(v) < q-1e-9 {
			t.Fatalf("At(Quantile(%v)) = %v < q", q, e.At(v))
		}
	}
}

func TestIntHistBasics(t *testing.T) {
	h := NewIntHist(10)
	for _, v := range []int{0, 1, 1, 2, 5, 20} {
		h.Add(v)
	}
	if h.N() != 6 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Max() != 20 {
		t.Fatalf("Max = %d", h.Max())
	}
	if got := h.CDFAt(1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("CDFAt(1) = %v", got)
	}
	if got := h.CDFAt(5); math.Abs(got-5.0/6) > 1e-12 {
		t.Fatalf("CDFAt(5) = %v", got)
	}
	if got := h.CDFAt(20); got != 1 {
		t.Fatalf("CDFAt(max) = %v", got)
	}
	if got := h.CDFAt(-1); got != 0 {
		t.Fatalf("CDFAt(-1) = %v", got)
	}
	if got := h.FracAbove(1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("FracAbove(1) = %v", got)
	}
	if got := h.Mean(); math.Abs(got-29.0/6) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
	if h.Median() != 1 {
		t.Fatalf("Median = %d", h.Median())
	}
}

func TestIntHistNegativeClamped(t *testing.T) {
	h := NewIntHist(4)
	h.Add(-5)
	if got := h.CDFAt(0); got != 1 {
		t.Fatalf("negative add not clamped to 0: %v", got)
	}
}

func TestIntHistEmpty(t *testing.T) {
	h := NewIntHist(4)
	if !math.IsNaN(h.CDFAt(1)) || !math.IsNaN(h.Mean()) || !math.IsNaN(h.FracAbove(0)) {
		t.Fatal("empty hist should yield NaN")
	}
	if h.QuantileInt(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestIntHistCDFPoints(t *testing.T) {
	h := NewIntHist(8)
	h.Add(0)
	h.Add(2)
	pts := h.CDFPoints(3)
	if len(pts) != 4 || pts[0].Y != 0.5 || pts[2].Y != 1 {
		t.Fatalf("CDFPoints = %v", pts)
	}
}

// Property: IntHist CDF matches a brute-force computation.
func TestIntHistMatchesBruteForce(t *testing.T) {
	f := func(vals []uint8, probe uint8) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewIntHist(16)
		for _, v := range vals {
			h.Add(int(v))
		}
		count := 0
		for _, v := range vals {
			if int(v) <= int(probe) {
				count++
			}
		}
		want := float64(count) / float64(len(vals))
		got := h.CDFAt(int(probe))
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestROCOrderingAndAUC(t *testing.T) {
	r := NewROC([]ROCPoint{
		{Threshold: 1.0, TPR: 0.1, FPR: 0.0},
		{Threshold: 0.0, TPR: 0.9, FPR: 0.5},
		{Threshold: 0.5, TPR: 0.5, FPR: 0.1},
	})
	if !sort.SliceIsSorted(r.Points, func(i, j int) bool { return r.Points[i].FPR < r.Points[j].FPR }) {
		t.Fatal("points not sorted by FPR")
	}
	auc := r.AUC()
	if auc <= 0.5 || auc > 1 {
		t.Fatalf("AUC = %v", auc)
	}
	// Perfect detector AUC = 1.
	perfect := NewROC([]ROCPoint{{TPR: 1, FPR: 0}})
	if got := perfect.AUC(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect AUC = %v", got)
	}
	// Random detector along the diagonal ≈ 0.5.
	random := NewROC([]ROCPoint{{TPR: 0.3, FPR: 0.3}, {TPR: 0.7, FPR: 0.7}})
	if got := random.AUC(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("diagonal AUC = %v", got)
	}
	empty := NewROC(nil)
	if !math.IsNaN(empty.AUC()) {
		t.Fatal("empty AUC should be NaN")
	}
}

func TestTPRAtFPR(t *testing.T) {
	r := NewROC([]ROCPoint{
		{Threshold: 1.0, TPR: 0.08, FPR: 0.00001},
		{Threshold: 0.1, TPR: 0.13, FPR: 0.0001},
		{Threshold: 0.0, TPR: 0.14, FPR: 0.009},
	})
	if tpr, ok := r.TPRAtFPR(0.001); !ok || tpr != 0.13 {
		t.Fatalf("TPRAtFPR(0.001) = %v, %v", tpr, ok)
	}
	if tpr, ok := r.TPRAtFPR(1); !ok || tpr != 0.14 {
		t.Fatalf("TPRAtFPR(1) = %v, %v", tpr, ok)
	}
	if _, ok := r.TPRAtFPR(0.0000001); ok {
		t.Fatal("impossible FPR constraint satisfied")
	}
}

func TestROCAt(t *testing.T) {
	r := NewROC([]ROCPoint{{Threshold: 0.5, TPR: 0.4, FPR: 0.1}})
	if p, ok := r.At(0.5); !ok || p.TPR != 0.4 {
		t.Fatalf("At(0.5) = %+v, %v", p, ok)
	}
	if _, ok := r.At(0.9); ok {
		t.Fatal("absent threshold found")
	}
}

func TestDominatesBelow(t *testing.T) {
	good := NewROC([]ROCPoint{{TPR: 0.2, FPR: 0.001}, {TPR: 0.25, FPR: 0.01}})
	bad := NewROC([]ROCPoint{{TPR: 0.05, FPR: 0.001}, {TPR: 0.1, FPR: 0.01}})
	probes := []float64{0.001, 0.01}
	if !good.DominatesBelow(bad, probes) {
		t.Fatal("good should dominate bad")
	}
	if bad.DominatesBelow(good, probes) {
		t.Fatal("bad should not dominate good")
	}
	if good.DominatesBelow(good, probes) {
		t.Fatal("curve should not strictly dominate itself")
	}
}

func TestBinaryCounts(t *testing.T) {
	c := BinaryCounts{TP: 30, FN: 70, FP: 1, TN: 999}
	if got := c.TPR(); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("TPR = %v", got)
	}
	if got := c.FPR(); math.Abs(got-0.001) > 1e-12 {
		t.Fatalf("FPR = %v", got)
	}
	var zero BinaryCounts
	if !math.IsNaN(zero.TPR()) || !math.IsNaN(zero.FPR()) {
		t.Fatal("zero counts should yield NaN rates")
	}
}

func TestExtrapolate(t *testing.T) {
	if got := Extrapolate(10, 0.001); got != 10000 {
		t.Fatalf("Extrapolate = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Extrapolate(1, 0) did not panic")
		}
	}()
	Extrapolate(1, 0)
}

func BenchmarkECDFAt(b *testing.B) {
	src := rng.New(1)
	samples := make([]float64, 100000)
	for i := range samples {
		samples[i] = src.Float64()
	}
	e := NewECDF(samples)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.At(0.5)
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(0, 0)
	if lo != 0 || hi != 1 {
		t.Fatalf("n=0 interval = [%v, %v]", lo, hi)
	}
	// 50/100: symmetric-ish around 0.5, roughly ±0.1.
	lo, hi = WilsonInterval(50, 100)
	if lo > 0.5 || hi < 0.5 {
		t.Fatalf("interval [%v, %v] excludes p", lo, hi)
	}
	if hi-lo < 0.15 || hi-lo > 0.25 {
		t.Fatalf("width = %v", hi-lo)
	}
	// Extremes stay in [0, 1] and contain sane mass.
	lo, hi = WilsonInterval(0, 20)
	if lo != 0 || hi < 0.1 || hi > 0.3 {
		t.Fatalf("0/20 interval = [%v, %v]", lo, hi)
	}
	lo, hi = WilsonInterval(20, 20)
	if hi != 1 || lo > 0.9 {
		t.Fatalf("20/20 interval = [%v, %v]", lo, hi)
	}
	// Interval shrinks with n.
	lo1, hi1 := WilsonInterval(5, 10)
	lo2, hi2 := WilsonInterval(500, 1000)
	if hi2-lo2 >= hi1-lo1 {
		t.Fatal("interval did not shrink with n")
	}
}
