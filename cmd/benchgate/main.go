// Command benchgate turns `go test -bench` output into a CI quality
// gate. It parses benchmark result lines, writes them as JSON, and
// compares ns/op against a checked-in baseline: a benchmark that slows
// down by more than -max-ratio, disappears from the run, or a run that
// panicked or FAILed, all exit non-zero.
//
// The baseline is a deliberately coarse tripwire, not a profiler:
// shared CI runners are noisy, so only order-of-magnitude regressions
// (default 3x) fail the gate. Refresh it with -update after intentional
// performance changes.
//
// A run with -count=N prints N result lines per benchmark. benchgate
// keeps each benchmark's median sample: it gates that sample, writes it
// to the results and, with -update, to the baseline, so one noisy
// sample neither fails nor passes a tight gate alone.
//
// Usage:
//
//	go test -bench=... -benchtime=1x ./... | tee bench.txt
//	benchgate -in bench.txt -baseline bench/BENCH_baseline.json -out BENCH_results.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result holds one benchmark's measurement.
type Result struct {
	NsPerOp float64 `json:"ns_per_op"`
	Iters   int64   `json:"iters,omitempty"`
}

// File is the on-disk shape of both the baseline and the results
// artifact.
type File struct {
	// MaxRatio documents the gate the baseline was recorded for.
	MaxRatio   float64           `json:"max_ratio,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	in := flag.String("in", "-", "bench output to read (- for stdin)")
	baseline := flag.String("baseline", "bench/BENCH_baseline.json", "checked-in baseline to gate against (empty to skip gating)")
	out := flag.String("out", "BENCH_results.json", "results artifact to write (empty to skip)")
	maxRatio := flag.Float64("max-ratio", 3, "fail when ns/op exceeds baseline by this factor")
	update := flag.Bool("update", false, "rewrite the baseline from this run instead of gating")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	results, bad, err := parse(r)
	if err != nil {
		fatal(err)
	}
	if len(results.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark result lines found in %s", *in))
	}
	results.MaxRatio = *maxRatio

	if *out != "" {
		if err := writeJSON(*out, results); err != nil {
			fatal(err)
		}
	}
	if bad != "" {
		fatal(fmt.Errorf("bench run did not pass: %s", bad))
	}
	if *update {
		if err := writeJSON(*baseline, results); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: baseline %s updated (%d benchmarks)\n", *baseline, len(results.Benchmarks))
		return
	}
	if *baseline == "" {
		fmt.Printf("benchgate: %d benchmarks recorded, no baseline to gate against\n", len(results.Benchmarks))
		return
	}

	base, err := readJSON(*baseline)
	if err != nil {
		fatal(fmt.Errorf("baseline: %w (run with -update to create one)", err))
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failures := 0
	for _, name := range names {
		want := base.Benchmarks[name]
		got, ok := results.Benchmarks[name]
		if !ok {
			fmt.Printf("benchgate: FAIL %-28s missing from this run (baseline %.0f ns/op)\n", name, want.NsPerOp)
			failures++
			continue
		}
		ratio := got.NsPerOp / want.NsPerOp
		status := "ok  "
		if ratio > *maxRatio {
			status = "FAIL"
			failures++
		}
		fmt.Printf("benchgate: %s %-28s %12.0f ns/op  (baseline %12.0f, %5.2fx)\n",
			status, name, got.NsPerOp, want.NsPerOp, ratio)
	}
	if failures > 0 {
		fatal(fmt.Errorf("%d of %d gated benchmarks regressed beyond %.1fx (or vanished)", failures, len(names), *maxRatio))
	}
	fmt.Printf("benchgate: all %d gated benchmarks within %.1fx of baseline\n", len(names), *maxRatio)
}

// parse extracts benchmark result lines from `go test -bench` output
// and keeps each benchmark's median sample (for an even count, the
// slower of the two middle ones). The returned bad string is non-empty
// when the run itself failed (panic or FAIL), which must gate even if
// every parsed line looks healthy.
func parse(r io.Reader) (*File, string, error) {
	samples := map[string][]Result{}
	bad := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "panic:") || strings.HasPrefix(trimmed, "fatal error:") {
			if bad == "" {
				bad = trimmed
			}
			continue
		}
		if trimmed == "FAIL" || strings.HasPrefix(trimmed, "FAIL\t") || strings.HasPrefix(trimmed, "--- FAIL") {
			if bad == "" {
				bad = trimmed
			}
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		// BenchmarkName-8  <iters>  <ns> ns/op  [extra metrics...]
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the GOMAXPROCS suffix
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		var ns float64
		found := false
		for i := 2; i+1 < len(fields); i++ {
			if fields[i+1] == "ns/op" {
				ns, err = strconv.ParseFloat(fields[i], 64)
				found = err == nil
				break
			}
		}
		if !found {
			continue
		}
		samples[name] = append(samples[name], Result{NsPerOp: ns, Iters: iters})
	}
	if err := sc.Err(); err != nil {
		return nil, "", err
	}
	out := &File{Benchmarks: map[string]Result{}}
	for name, rs := range samples {
		sort.Slice(rs, func(i, j int) bool { return rs[i].NsPerOp < rs[j].NsPerOp })
		out.Benchmarks[name] = rs[len(rs)/2]
	}
	return out, bad, nil
}

func readJSON(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &f, nil
}

func writeJSON(path string, f *File) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
