package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"userv6"
	"userv6/internal/core"
	"userv6/internal/dataset"
	"userv6/internal/telemetry"
)

// exportShards is the shard count of every sharded export the
// benchmark writes.
const exportShards = 4

// workload is one prepared input plus the operation the benchmark runs
// on it.
type workload interface {
	// pass runs the operation once through the production entry points;
	// the caller times it. The returned check compares the pass's output
	// with the set-up references and removes what the pass left on disk.
	// It runs outside the timed region.
	pass(ctx context.Context) (check func() error, err error)
	// reference is the traced run's untraced pass: the same operation
	// under the plan pass resolves at the full GOMAXPROCS, so that it
	// stays comparable after the traced run drops GOMAXPROCS to 1.
	reference(ctx context.Context) (check func() error, err error)
	// traced runs the operation from the benchmark's own code, one span
	// around every call into a layer, under the span parent. extra holds
	// the per-layer metrics spans cannot sum.
	traced(ctx context.Context, tr *tracer, parent int) (check func() error, extra map[string]float64, err error)
	// records is the record count of one pass.
	records() uint64
	// storedBytes is the input (analyze) or merged output (export) size.
	storedBytes() int64
	// about is one line on the operation, for the report header.
	about() string
}

// workloadSpec names a workload and sets it up in dir. The reasons for
// each are in README.md and BENCHMARK.json.
type workloadSpec struct {
	name  string
	setup func(ctx context.Context, users int, seed uint64, dir string) (workload, error)
}

var workloads = []workloadSpec{
	{"analyze-fused", analyze(false, 0)},
	{"analyze-seq", analyze(false, 1)},
	{"analyze-manifest-auto", analyze(true, 0)},
	{"export-merge-auto", setupExportMerge},
}

// analyze returns the set-up of an analyze workload over a dataset file
// or, with manifest, a sharded export, at AnalyzeOptions.Workers workers.
func analyze(manifest bool, workers int) func(context.Context, int, uint64, string) (workload, error) {
	return func(ctx context.Context, users int, seed uint64, dir string) (workload, error) {
		return setupAnalyze(ctx, users, seed, dir, manifest, workers)
	}
}

// weekMeta describes the analysis week (days 81-87) of the scenario.
func weekMeta(users int, seed uint64) dataset.Meta {
	from, to := userv6.AnalysisWeek()
	return dataset.Meta{Seed: seed, Users: users, FromDay: int(from), ToDay: int(to), Sample: "all"}
}

// writeDataset writes the scenario's telemetry for meta's window to one
// dataset file through a single writer.
func writeDataset(sim *userv6.Sim, path string, meta dataset.Meta) error {
	w, err := dataset.Create(path, meta)
	if err != nil {
		return err
	}
	emit, errp := w.Emit()
	from, to := meta.Window()
	sim.Generate(from, to, emit)
	if *errp != nil {
		w.Abort()
		return *errp
	}
	return w.Close()
}

// diskBytes is the size of a file, or of every file in a directory.
func diskBytes(path string) (int64, error) {
	var n int64
	err := filepath.WalkDir(path, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		n += fi.Size()
		return err
	})
	return n, err
}

// analyzeInput is an analyze workload: a dataset file or sharded export
// plus the digest every pass must reproduce.
type analyzeInput struct {
	input   string // dataset file or export directory
	workers int    // AnalyzeOptions.Workers of the timed passes
	plan    core.Plan
	total   uint64 // records the header or manifest declares
	stored  int64
	digest  string
}

// setupAnalyze writes the week as an identity-codec dataset file, takes
// the reference digest from it with the legacy sequential reader, which
// shares no loop with ParallelReader or ExecutePlan, and, for the
// manifest workload, exports the week again as a 4-shard "auto" export
// that the passes analyze in place.
func setupAnalyze(ctx context.Context, users int, seed uint64, dir string, manifest bool, workers int) (*analyzeInput, error) {
	sim := userv6.NewSim(userv6.DefaultScenario(users).WithSeed(seed))
	meta := weekMeta(users, seed)
	file := filepath.Join(dir, "week.uv6")
	if err := writeDataset(sim, file, meta); err != nil {
		return nil, err
	}
	r, err := dataset.Open(file)
	if err != nil {
		return nil, err
	}
	ref := newAnalyzers(r.Meta())
	var n uint64
	err = r.ForEach(func(o telemetry.Observation) {
		n++
		ref.set.Observe(o)
	})
	r.Close()
	if err != nil {
		return nil, err
	}
	w := &analyzeInput{input: file, workers: workers, total: r.Meta().Records, digest: ref.digest()}

	if manifest {
		meta.Codec = "auto"
		w.input = filepath.Join(dir, "export")
		man, err := sim.ExportShardedCtx(ctx, w.input, exportShards, meta, nil)
		if err != nil {
			return nil, err
		}
		w.total = man.TotalRecords()
		if err := os.Remove(file); err != nil {
			return nil, err
		}
	}
	if n != w.total {
		return nil, fmt.Errorf("set-up: reference read %d records, the input declares %d", n, w.total)
	}
	if w.stored, err = diskBytes(w.input); err != nil {
		return nil, err
	}
	src, err := dataset.OpenSource(w.input)
	if err != nil {
		return nil, err
	}
	w.plan, err = userv6.PlanSource(src, newAnalyzers(meta).set, userv6.AnalyzeOptions{Workers: workers})
	return w, err
}

func (w *analyzeInput) records() uint64    { return w.total }
func (w *analyzeInput) storedBytes() int64 { return w.stored }
func (w *analyzeInput) about() string      { return "plan " + w.plan.Explain() }

func (w *analyzeInput) pass(ctx context.Context) (func() error, error) {
	return w.run(ctx, func(src dataset.Source, set *core.AnalyzerSet) (telemetry.SalvageReport, error) {
		return userv6.AnalyzeSource(ctx, src, set, userv6.AnalyzeOptions{Workers: w.workers})
	})
}

func (w *analyzeInput) reference(ctx context.Context) (func() error, error) {
	return w.run(ctx, func(src dataset.Source, set *core.AnalyzerSet) (telemetry.SalvageReport, error) {
		return userv6.ExecutePlan(ctx, src, set, w.plan)
	})
}

// run opens the source and analyzes it with exec, as the CLI does.
func (w *analyzeInput) run(ctx context.Context, exec func(dataset.Source, *core.AnalyzerSet) (telemetry.SalvageReport, error)) (func() error, error) {
	src, err := dataset.OpenSource(w.input)
	if err != nil {
		return nil, err
	}
	meta, _ := src.Meta()
	a := newAnalyzers(meta)
	rep, err := exec(src, a.set)
	if err != nil {
		return nil, err
	}
	return func() error { return w.check(a, rep.Records) }, nil
}

// check compares one pass's analyzers and record count with set-up.
func (w *analyzeInput) check(a *analyzers, records uint64) error {
	if records != w.total {
		return fmt.Errorf("analysis read %d records, the input declares %d", records, w.total)
	}
	if got := a.digest(); got != w.digest {
		return fmt.Errorf("analysis output differs from the reference at %s", firstDiff(got, w.digest))
	}
	return nil
}

// exportMerge is the export-merge-auto workload: each pass exports the
// week as 4 "auto" shards into a fresh directory and merges them.
type exportMerge struct {
	sim       *userv6.Sim
	meta      dataset.Meta
	dir       string
	man       *dataset.Manifest // the set-up export's manifest
	mergedCRC string            // CRC32C of the single-writer file
	stored    int64             // and its size

	// Buffers of the traced run, kept across its passes.
	recs []telemetry.Observation
	enc  bytes.Buffer
}

// mergedName is the merged output's file name inside a pass directory.
const mergedName = "merged.uv6"

// setupExportMerge writes the week once through a single "auto" writer,
// whose bytes every merged output must reproduce, and once as the
// sharded export whose config hash and part checksums every pass must
// reproduce.
func setupExportMerge(ctx context.Context, users int, seed uint64, dir string) (workload, error) {
	w := &exportMerge{sim: userv6.NewSim(userv6.DefaultScenario(users).WithSeed(seed)), meta: weekMeta(users, seed), dir: dir}
	w.meta.Codec = "auto"
	single := filepath.Join(dir, "single.uv6")
	if err := writeDataset(w.sim, single, w.meta); err != nil {
		return nil, err
	}
	var err error
	if w.mergedCRC, err = dataset.FileCRC32C(single); err != nil {
		return nil, err
	}
	if w.stored, err = diskBytes(single); err != nil {
		return nil, err
	}
	if err := os.Remove(single); err != nil {
		return nil, err
	}
	export := filepath.Join(dir, "export")
	if w.man, err = w.sim.ExportShardedCtx(ctx, export, exportShards, w.meta, nil); err != nil {
		return nil, err
	}
	return w, os.RemoveAll(export)
}

func (w *exportMerge) records() uint64    { return w.man.TotalRecords() }
func (w *exportMerge) storedBytes() int64 { return w.stored }
func (w *exportMerge) about() string {
	return fmt.Sprintf("export %d shards, codec %s, then strict merge", exportShards, w.meta.Codec)
}

func (w *exportMerge) pass(ctx context.Context) (func() error, error) {
	dir, err := os.MkdirTemp(w.dir, "pass-")
	if err != nil {
		return nil, err
	}
	man, err := w.sim.ExportShardedCtx(ctx, dir, exportShards, w.meta, nil)
	var rep dataset.MergeReport
	if err == nil {
		_, rep, err = dataset.MergeManifest(filepath.Join(dir, mergedName),
			filepath.Join(dir, dataset.ManifestName), &dataset.MergeOptions{Strict: true})
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return func() error {
		defer os.RemoveAll(dir)
		return w.check(dir, man.ConfigHash, rep.Records)
	}, nil
}

func (w *exportMerge) reference(ctx context.Context) (func() error, error) { return w.pass(ctx) }

// check compares a pass directory with set-up: the export's config hash
// and part checksums, and the merged file's record count and checksum.
func (w *exportMerge) check(dir, configHash string, records uint64) error {
	if configHash != w.man.ConfigHash {
		return fmt.Errorf("export config hash %s, set-up wrote %s", configHash, w.man.ConfigHash)
	}
	for _, p := range w.man.Parts {
		crc, err := dataset.FileCRC32C(filepath.Join(dir, p.Name))
		if err != nil {
			return err
		}
		if crc != p.CRC32C {
			return fmt.Errorf("part %s: CRC32C %s, set-up wrote %s", p.Name, crc, p.CRC32C)
		}
	}
	if records != w.man.TotalRecords() {
		return fmt.Errorf("merge wrote %d records, the manifest declares %d", records, w.man.TotalRecords())
	}
	crc, err := dataset.FileCRC32C(filepath.Join(dir, mergedName))
	if err != nil {
		return err
	}
	if crc != w.mergedCRC {
		return fmt.Errorf("merged file CRC32C %s, the single-writer file has %s", crc, w.mergedCRC)
	}
	return nil
}
