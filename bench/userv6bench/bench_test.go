package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testUsers keeps every workload small enough for the unit tests.
const testUsers = 300

// benchmarkJSON loads the repository's BENCHMARK.json.
func benchmarkJSON(t *testing.T) (e2e, layer []bound) {
	t.Helper()
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
		PerLayer []bound `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in the code and
// in BENCHMARK.json identical, names and units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	e2e, layer := benchmarkJSON(t)
	for _, c := range []struct {
		code []metricDef
		json []bound
	}{{endToEnd, e2e}, {perLayer, layer}} {
		if len(c.code) != len(c.json) {
			t.Fatalf("code has %d metrics, BENCHMARK.json %d", len(c.code), len(c.json))
		}
		for i, d := range c.code {
			if d.name != c.json[i].Name || d.unit != c.json[i].Unit {
				t.Errorf("metric %d: code %s [%s], BENCHMARK.json %s [%s]", i, d.name, d.unit, c.json[i].Name, c.json[i].Unit)
			}
		}
	}
}

// TestWorkloads runs every workload, untraced and traced, for two passes
// and checks the printed result: every BENCHMARK.json metric of the mode
// by name, and no failed pass.
func TestWorkloads(t *testing.T) {
	e2e, layer := benchmarkJSON(t)
	for _, spec := range workloads {
		for _, trace := range []bool{false, true} {
			name := spec.name + "/untraced"
			want := e2e
			if trace {
				name, want = spec.name+"/traced", layer
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := config{spec: spec, users: testUsers, seed: 1, trace: trace, dir: dir}
				if trace {
					cfg.spans = filepath.Join(dir, "spans.json")
				}
				var out bytes.Buffer
				if _, err := runWorkload(context.Background(), &out, cfg); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				// A warm-up, then minPasses timed passes, or minPasses pairs
				// of reference and traced passes.
				passes := 1 + minPasses
				if trace {
					passes += minPasses
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != passes {
					t.Fatalf("result %+v, want %d passes and none failed", res, passes)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s [%s]: printed %+v", m.Name, m.Unit, got)
					}
				}
				if !trace {
					return
				}
				records := "decode.records"
				if spec.name == "export-merge-auto" {
					records = "merge.records"
				}
				if res.Metrics[records].Value == 0 {
					t.Errorf("%s is 0", records)
				}
				var spans []span
				data, err := os.ReadFile(cfg.spans)
				if err == nil {
					err = json.Unmarshal(data, &spans)
				}
				if err != nil || len(spans) == 0 {
					t.Fatalf("spans file: %d spans, %v", len(spans), err)
				}
			})
		}
	}
}

// TestCorruptPartFails flips one payload byte in a manifest part: every
// analyze pass over it must count as failed.
func TestCorruptPartFails(t *testing.T) {
	ctx := context.Background()
	w, err := setupAnalyze(ctx, testUsers, 1, t.TempDir(), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	part := filepath.Join(w.input, "part-0000.uv6")
	data, err := os.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	data[datasetHeader+4+16+10] ^= 0xff // inside the first block's payload
	if err := os.WriteFile(part, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var o outcome
	timedPasses(ctx, w, 0, &o)
	if o.attempted == 0 || o.failed != o.attempted {
		t.Fatalf("%d of %d passes failed, want all", o.failed, o.attempted)
	}
}

// TestCompare checks the quartiles against Python's
// statistics.quantiles and that -compare flags a median that moved
// past its bound.
func TestCompare(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Fatalf("median %v, want 5.5", m)
	}

	e2e, _ := benchmarkJSON(t)
	write := func(scale float64) string {
		path := filepath.Join(t.TempDir(), "set.jsonl")
		for i := 0; i < 10; i++ {
			r := record{Workload: "analyze-seq", Seed: uint64(i + 1), result: result{Correct: true, Attempted: 3, Metrics: map[string]metric{}}}
			for _, m := range e2e {
				r.Metrics[m.Name] = metric{Value: scale * (100 + float64(i%2)), Unit: m.Unit}
			}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	bench := filepath.Join("..", "..", "BENCHMARK.json")
	a := write(1)
	var out bytes.Buffer
	if code := compareSets(&out, bench, a, write(1)); code != 0 {
		t.Fatalf("identical sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(&out, bench, a, write(1.5)); code != 1 || !strings.Contains(out.String(), "DISAGREE") {
		t.Fatalf("moved set: exit %d\n%s", code, out.String())
	}
}
