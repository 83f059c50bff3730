package userv6

// Benchmarks for the block-parallel analysis engine: sequential dataset
// replay versus the fused decode + analyze path, over the same file and
// the same registered analyzers. The names land side by side in the
// bench artifact so the speedup ratio is recorded per run.

import (
	"context"
	"path/filepath"
	"testing"

	"userv6/internal/dataset"
)

// benchAnalyzeWorkers is the pool size for the fused benchmarks;
// speedup is only visible on multicore hardware, but correctness (and
// the gate) holds at any core count.
const benchAnalyzeWorkers = 4

// writeBenchDataset generates one analysis week of benign telemetry for
// the shared benchmark population into a fresh dataset file.
func writeBenchDataset(b *testing.B) string {
	b.Helper()
	sim := getBenchSim()
	from, to := AnalysisWeek()
	path := filepath.Join(b.TempDir(), "bench.uv6")
	w, err := dataset.Create(path, dataset.Meta{
		Seed: 1, Users: benchUsers, FromDay: int(from), ToDay: int(to), Sample: "all",
	})
	if err != nil {
		b.Fatal(err)
	}
	emit, errp := w.Emit()
	sim.Generate(from, to, emit)
	if *errp != nil {
		b.Fatal(*errp)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkAnalyzeSequential replays the dataset through every analyzer
// on one goroutine, feeding every stored record: the uncoalesced
// reference that the fused engine, which coalesces each block first,
// must beat.
func BenchmarkAnalyzeSequential(b *testing.B) {
	path := writeBenchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newAnalyzeSet()
		r, err := dataset.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.ForEach(s.set.Observe); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

// BenchmarkAnalyzeFused runs the replay through AnalyzeSource on the
// fused path: the decode workers are the analyzer workers, each feeding
// a worker-local replica with no cross-goroutine record handoff; one
// fold at the end.
func BenchmarkAnalyzeFused(b *testing.B) {
	path := writeBenchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newAnalyzeSet()
		if _, err := analyzeFile(path, benchAnalyzeWorkers, s.set, false); err != nil {
			b.Fatal(err)
		}
	}
}

// writeBenchShardedExport writes the benchmark week as a 4-shard export
// and returns its directory.
func writeBenchShardedExport(b *testing.B) string {
	b.Helper()
	sim := getBenchSim()
	from, to := AnalysisWeek()
	dir := b.TempDir()
	meta := dataset.Meta{Seed: 1, Users: benchUsers, FromDay: int(from), ToDay: int(to), Sample: "all"}
	if _, err := sim.ExportShardedCtx(context.Background(), dir, 4, meta, nil); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkAnalyzeManifest analyzes a sharded export in place: the
// fused engine fanned out part by part, each part's manifest checksum
// checked on the bytes its read consumed — the path that replaces
// merge-then-analyze.
func BenchmarkAnalyzeManifest(b *testing.B) {
	dir := writeBenchShardedExport(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := dataset.OpenManifestSource(dir)
		if err != nil {
			b.Fatal(err)
		}
		s := newAnalyzeSet()
		if _, err := AnalyzeSource(context.Background(), src, s.set, AnalyzeOptions{Workers: benchAnalyzeWorkers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeMergeAnalyze is the round-trip BenchmarkAnalyzeManifest
// must beat: strict merge of the same export to a scratch file, then the
// fused engine over the merged output.
func BenchmarkAnalyzeMergeAnalyze(b *testing.B) {
	dir := writeBenchShardedExport(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged := filepath.Join(b.TempDir(), "merged.uv6")
		if _, _, err := dataset.MergeManifest(merged, filepath.Join(dir, dataset.ManifestName), &dataset.MergeOptions{Strict: true}); err != nil {
			b.Fatal(err)
		}
		s := newAnalyzeSet()
		if _, err := analyzeFile(merged, benchAnalyzeWorkers, s.set, false); err != nil {
			b.Fatal(err)
		}
	}
}
