package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const (
	// minPasses is the fewest timed (or traced) passes a run makes,
	// however short its -seconds.
	minPasses = 2
	// setupRuns is how many times an untraced run sets its workload up;
	// setup_s is the median.
	setupRuns = 3
)

// sample is one pass's cost.
type sample struct {
	wall, cpu time.Duration
	alloc     uint64
}

// timed runs fn after a full GC, measuring wall time, the process's CPU
// time and its heap allocation around it.
func timed(fn func() error) (sample, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a0, c0, t0 := ms.TotalAlloc, cpuTime(), time.Now()
	err := fn()
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&ms)
	return sample{wall: wall, cpu: c1 - c0, alloc: ms.TotalAlloc - a0}, err
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// outcome counts a run's passes.
type outcome struct{ attempted, failed int }

// count records one pass and reports whether it succeeded.
func (o *outcome) count(err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintf(os.Stderr, "userv6bench: pass %d failed: %v\n", o.attempted, err)
	}
	return err == nil
}

// run times one pass and checks its output outside the timed region.
func (o *outcome) run(ctx context.Context, pass func(context.Context) (func() error, error)) (sample, bool) {
	var check func() error
	s, err := timed(func() (err error) {
		check, err = pass(ctx)
		return err
	})
	if err == nil {
		err = check()
	}
	return s, o.count(err)
}

// timedPasses runs one warm-up pass, then timed passes until seconds
// have elapsed, and returns the samples of the passes that succeeded.
func timedPasses(ctx context.Context, w workload, seconds float64, o *outcome) []sample {
	o.run(ctx, w.pass)
	var samples []sample
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start).Seconds() < seconds; n++ {
		if s, ok := o.run(ctx, w.pass); ok {
			samples = append(samples, s)
		}
	}
	return samples
}

// endToEndValues derives the end-to-end metrics from a run's samples and
// set-up times.
func endToEndValues(w workload, samples []sample, setups []float64) map[string]float64 {
	var walls, cpus, allocs []float64
	for _, s := range samples {
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		allocs = append(allocs, float64(s.alloc))
	}
	return map[string]float64{
		"records_per_s":           float64(w.records()) / median(walls),
		"cpu_s_per_pass":          median(cpus),
		"alloc_mb_per_pass":       median(allocs) / 1e6,
		"peak_rss_mb":             peakRSS() / 1e6,
		"stored_bytes_per_record": float64(w.storedBytes()) / float64(w.records()),
		"setup_s":                 median(setups),
	}
}

// traceRun alternates untraced reference passes with traced passes at
// GOMAXPROCS=1, after one reference warm-up, until seconds have
// elapsed. Each per-layer metric is the median over the traced passes;
// residual_s is the median reference wall time minus the median sum of
// layer self times.
func traceRun(ctx context.Context, w workload, seconds float64, tr *tracer, o *outcome) map[string]float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o.run(ctx, w.reference)
	var refs, walls, selfs []float64
	per := map[string][]float64{}
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start).Seconds() < seconds; n++ {
		if s, ok := o.run(ctx, w.reference); ok {
			refs = append(refs, s.wall.Seconds())
		}
		runtime.GC()
		root := tr.begin(0, "pass")
		check, extra, err := w.traced(ctx, tr, root)
		tr.end(root)
		if err == nil {
			err = check()
		}
		if !o.count(err) {
			continue
		}
		m, self := tr.layers(root)
		for k, v := range extra {
			m[k] = v
		}
		for k, v := range m {
			per[k] = append(per[k], v)
		}
		walls = append(walls, float64(tr.get(root).dur())/1e9)
		selfs = append(selfs, self.Seconds())
	}
	values := map[string]float64{}
	for k, vs := range per {
		values[k] = median(vs)
	}
	ref := median(refs)
	values["reference_s"] = ref
	values["residual_s"] = ref - median(selfs)
	values["trace.overhead_ratio"] = median(walls) / ref
	return values
}

// median is the middle value of xs (the mean of the middle two for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (its default exclusive
// method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
