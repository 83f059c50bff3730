package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"userv6/internal/report"
)

// bound is one BENCHMARK.json end-to-end entry.
type bound struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// compareSets prints, for each workload and end-to-end metric, the
// median and quartiles of two record sets and whether they agree: the
// medians differ by at most the metric's bound, and so does each set's
// quartile spread (setup_s excepted). It returns 1 when any pair
// disagrees, a workload is missing from one set, or any run failed.
func compareSets(out io.Writer, benchPath, pathA, pathB string) int {
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	data, err := os.ReadFile(benchPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	sets := make([]map[string][]record, 2)
	for i, path := range []string{pathA, pathB} {
		if err == nil {
			sets[i], err = readRecords(path)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "userv6bench: compare:", err)
		return 1
	}
	a, b := sets[0], sets[1]

	names := map[string]bool{}
	for wl := range a {
		names[wl] = true
	}
	for wl := range b {
		names[wl] = true
	}
	order := make([]string, 0, len(names))
	for wl := range names {
		order = append(order, wl)
	}
	sort.Strings(order)

	bad := 0
	t := report.NewTable("workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "spread A", "spread B", "bound", "verdict")
	for _, wl := range order {
		ra, rb := a[wl], b[wl]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(out, "%s: %d runs in A, %d in B\n", wl, len(ra), len(rb))
			bad++
			continue
		}
		fa, fb := failed(ra), failed(rb)
		fmt.Fprintf(out, "%s: %d runs in A (failed_ratio %g), %d in B (failed_ratio %g)\n",
			wl, len(ra), fa, len(rb), fb)
		if fa != 0 || fb != 0 {
			bad++
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			ma, mb := median(va), median(vb)
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			delta := (mb - ma) / ma
			sa, sb := (qa3-qa1)/ma, (qb3-qb1)/mb
			ok := math.Abs(delta) <= m.Bound && (m.Name == "setup_s" || sa <= m.Bound && sb <= m.Bound)
			verdict := "agree"
			if !ok {
				verdict = "DISAGREE"
				bad++
			}
			t.Row(wl, m.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g]", ma, qa1, qa3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", mb, qb1, qb3),
				fmt.Sprintf("%+.2f%%", 100*delta), fmt.Sprintf("%.2f%%", 100*sa), fmt.Sprintf("%.2f%%", 100*sb),
				fmt.Sprintf("%g%%", 100*m.Bound), verdict)
		}
	}
	t.Write(out)
	if bad > 0 {
		fmt.Fprintf(out, "%d disagreement(s)\n", bad)
		return 1
	}
	fmt.Fprintln(out, "all pairs agree")
	return 0
}

// readRecords loads the untraced runs of a -record file by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

func values(rs []record, name string) []float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = r.Metrics[name].Value
	}
	return vs
}

// failed is the failed share of the runs' attempted passes.
func failed(rs []record) float64 {
	var n, f int
	for _, r := range rs {
		n += r.Attempted
		f += r.Failed
	}
	return float64(f) / float64(max(n, 1))
}
