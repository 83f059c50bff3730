// Command userv6bench is the repository's benchmark: four workloads
// that write and analyze the 30k-user analysis week through the
// production entry points (userv6.AnalyzeSource, Sim.ExportShardedCtx,
// dataset.MergeManifest), check every pass against a reference, and
// print the end-to-end metrics, or with -trace 1 the per-layer metrics
// of a traced run. Run it from the repository root:
//
//	bash bench/userv6bench/run.sh --workload analyze-fused --seed 1 --seconds 15 --trace 0
//
// The last line of the output is a JSON object with the keys correct,
// attempted, failed and metrics. See README.md for the workloads, the
// metrics and the -compare agreement check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"userv6/internal/report"
)

// weekUsers is the population of the benchmark week, the scale
// EXPERIMENTS.md calibrates at.
const weekUsers = 30_000

// revision is the commit the binary was built from; run.sh sets it.
var revision = "unknown"

// buildDir holds everything a run writes, relative to the working
// directory (the repository root).
const buildDir = ".bench_build"

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; BENCHMARK.json
// fixes their bounds.
var endToEnd = []metricDef{
	{"records_per_s", "records/s"},
	{"cpu_s_per_pass", "s"},
	{"alloc_mb_per_pass", "MB"},
	{"peak_rss_mb", "MB"},
	{"stored_bytes_per_record", "B/record"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics, named after the modules. A
// layer a workload does not run reports 0.
var perLayer = []metricDef{
	{"source.open.busy_s", "s"}, {"source.open.alloc_b", "B"},
	{"source.crc_gate.busy_s", "s"}, {"source.crc_gate.alloc_b", "B"},
	{"scan.busy_s", "s"}, {"scan.alloc_b", "B"}, {"scan.blocks", "count"}, {"scan.bytes", "B"},
	{"crc.busy_s", "s"}, {"crc.alloc_b", "B"},
	{"decode.busy_s", "s"}, {"decode.alloc_b", "B"}, {"decode.records", "count"},
	{"decode.blocks.identity", "count"}, {"decode.blocks.lz", "count"}, {"decode.blocks.delta", "count"},
	{"observe.usercentric.busy_s", "s"}, {"observe.usercentric.alloc_b", "B"},
	{"observe.ipcentric4.busy_s", "s"}, {"observe.ipcentric4.alloc_b", "B"},
	{"observe.ipcentric128.busy_s", "s"}, {"observe.ipcentric128.alloc_b", "B"},
	{"observe.ipcentric64.busy_s", "s"}, {"observe.ipcentric64.alloc_b", "B"},
	{"observe.churn.busy_s", "s"}, {"observe.churn.alloc_b", "B"},
	{"observe.lifespans.busy_s", "s"}, {"observe.lifespans.alloc_b", "B"},
	{"observe.prevalence.busy_s", "s"}, {"observe.prevalence.alloc_b", "B"},
	{"fanout.busy_s", "s"}, {"fanout.alloc_b", "B"}, {"fanout.worker_busy_s", "s"}, {"fanout.skew", "ratio"},
	{"fold.busy_s", "s"}, {"fold.alloc_b", "B"}, {"fold.replicas", "count"},
	{"gen.busy_s", "s"}, {"gen.alloc_b", "B"}, {"gen.records", "count"},
	{"encode.busy_s", "s"}, {"encode.alloc_b", "B"}, {"encode.bytes", "B"},
	{"encode.blocks.identity", "count"}, {"encode.blocks.lz", "count"}, {"encode.blocks.delta", "count"},
	{"write.busy_s", "s"}, {"write.alloc_b", "B"}, {"write.bytes", "B"},
	{"merge.busy_s", "s"}, {"merge.alloc_b", "B"}, {"merge.records", "count"}, {"merge.retries", "count"},
	{"reference_s", "s"}, {"residual_s", "s"}, {"trace.overhead_ratio", "ratio"},
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run's result as -record appends it and -compare reads
// it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Hardware string `json:"hardware"`
	result
}

// config is one workload run.
type config struct {
	spec    workloadSpec
	users   int
	seed    uint64
	seconds float64
	trace   bool
	spans   string // spans file of a traced run; "" writes none
	dir     string // scratch directory for inputs and outputs
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("userv6bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Uint64("seed", 1, "scenario seed the inputs are generated from")
	seconds := fs.Float64("seconds", 15, "seconds of timed (or traced) passes per workload")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write every span to this JSON file")
	recordPath := fs.String("record", "", "append each workload's result to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two -record files given as arguments, under the bounds in ./BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: userv6bench -compare a.jsonl b.jsonl")
			return 2
		}
		return compareSets(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "userv6bench: -trace takes 0 or 1")
		return 2
	}
	specs := workloads
	if *name != "" {
		specs = nil
		for _, s := range workloads {
			if s.name == *name {
				specs = append(specs, s)
			}
		}
		if specs == nil {
			fmt.Fprintf(os.Stderr, "userv6bench: unknown workload %q\n", *name)
			return 2
		}
	}

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "userv6bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "userv6bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	code := 0
	for _, spec := range specs {
		cfg := config{spec: spec, users: weekUsers, seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans, dir: dir}
		res, err := runWorkload(context.Background(), stdout, cfg)
		if err == nil && *recordPath != "" {
			err = appendRecord(*recordPath, record{Workload: spec.name, Seed: *seed, Trace: *trace, Hardware: hardware(), result: res})
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "userv6bench: %s: %v\n", spec.name, err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload sets one workload up, measures it, and prints its report
// ending in the result line.
func runWorkload(ctx context.Context, out io.Writer, cfg config) (result, error) {
	w, setups, err := setUp(ctx, cfg)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	fmt.Fprintf(out, "userv6bench workload=%s seed=%d users=%d records=%d trace=%d\n",
		cfg.spec.name, cfg.seed, cfg.users, w.records(), trace)
	fmt.Fprintf(out, "hardware: %s\n", hardware())
	fmt.Fprintf(out, "operation: %s; %d bytes stored\n", w.about(), w.storedBytes())

	var (
		o      outcome
		values map[string]float64
		defs   = endToEnd
	)
	if cfg.trace {
		tr := newTracer()
		values = traceRun(ctx, w, cfg.seconds, tr, &o)
		defs = perLayer
		if cfg.spans != "" {
			if err := tr.write(cfg.spans); err != nil {
				return result{}, err
			}
		}
	} else {
		values = endToEndValues(w, timedPasses(ctx, w, cfg.seconds, &o), setups)
	}

	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	t := report.NewTable("metric", "value", "unit")
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		t.Row(d.name, v, d.unit)
	}
	t.Write(out)
	fmt.Fprintf(out, "passes: %d attempted (1 warm-up), %d failed, failed_ratio %g; set-ups: %d\n",
		o.attempted, o.failed, float64(o.failed)/float64(o.attempted), len(setups))
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

// setUp sets the workload up setupRuns times (once for a traced run),
// each in a fresh directory, and keeps the last.
func setUp(ctx context.Context, cfg config) (workload, []float64, error) {
	runs := setupRuns
	if cfg.trace {
		runs = 1
	}
	var (
		w     workload
		prev  string
		walls []float64
	)
	for i := 0; i < runs; i++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("%s-%d", cfg.spec.name, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		runtime.GC()
		start := time.Now()
		next, err := cfg.spec.setup(ctx, cfg.users, cfg.seed, dir)
		if err != nil {
			return nil, nil, err
		}
		walls = append(walls, time.Since(start).Seconds())
		if prev != "" {
			if err := os.RemoveAll(prev); err != nil {
				return nil, nil, err
			}
		}
		w, prev = next, dir
	}
	return w, walls, nil
}

// hardware names what a result was measured on.
func hardware() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), revision)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
