package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseKeepsMedianSample: a -count=N run prints N result lines per
// benchmark, and the gate reads the median one whatever their order.
func TestParseKeepsMedianSample(t *testing.T) {
	const out = `goos: linux
BenchmarkA-2   	     100	      3000 ns/op
BenchmarkB-2   	      10	      7000 ns/op	      12 B/op
BenchmarkA-2   	      90	      9000 ns/op
BenchmarkB-2   	      12	      5000 ns/op	      12 B/op
BenchmarkA-2   	     110	      2000 ns/op
BenchmarkC     	       1	        40 ns/op
PASS
`
	got, bad, err := parse(strings.NewReader(out))
	if err != nil || bad != "" {
		t.Fatalf("parse: bad %q, err %v", bad, err)
	}
	want := map[string]Result{
		"BenchmarkA": {NsPerOp: 3000, Iters: 100}, // the middle of three
		"BenchmarkB": {NsPerOp: 7000, Iters: 10},  // even count: the slower middle sample
		"BenchmarkC": {NsPerOp: 40, Iters: 1},     // one sample, as in the PR smoke run
	}
	if !reflect.DeepEqual(got.Benchmarks, want) {
		t.Fatalf("parsed %v, want %v", got.Benchmarks, want)
	}
}
