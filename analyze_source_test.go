package userv6

// Parity matrix for the source/plan/execute stack: every source shape
// (merged file, manifest, bare part list) under both execution modes,
// strict and tolerant, must produce analyzer state identical to the
// sequential replay of the merged file — and analyzing a manifest
// directly must account coverage exactly like merging it first.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"userv6/internal/core"
	"userv6/internal/dataset"
	"userv6/internal/telemetry"
)

// exportShardedWeek writes a 4-shard analysis-week export and returns
// the directory, the manifest, and a strict merge of it.
func exportShardedWeek(t *testing.T, sim *Sim, users int) (dir, merged string, man *dataset.Manifest) {
	t.Helper()
	from, to := AnalysisWeek()
	dir = t.TempDir()
	meta := dataset.Meta{Seed: 1, Users: users, FromDay: int(from), ToDay: int(to), Sample: "all"}
	man, err := sim.ExportShardedCtx(context.Background(), dir, 4, meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	merged = filepath.Join(t.TempDir(), "merged.uv6")
	if _, _, err := dataset.MergeManifest(merged, filepath.Join(dir, dataset.ManifestName), &dataset.MergeOptions{Strict: true}); err != nil {
		t.Fatal(err)
	}
	return dir, merged, man
}

func sequentialBaseline(t *testing.T, path string) analyzeSet {
	t.Helper()
	base := newAnalyzeSet()
	r, err := dataset.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.ForEach(base.set.Emit()); err != nil {
		t.Fatal(err)
	}
	return base
}

// analyzeModes are the two execution modes, selected by worker count.
var analyzeModes = []struct {
	name    string
	workers int
	want    core.Mode
}{
	{"seq", 1, core.ModeSequential},
	{"fused", 4, core.ModeFused},
}

// TestAnalyzeSourceParityMatrix sweeps source {file, manifest, parts} ×
// mode {sequential, fused} × {strict, tolerant} against the merged-file
// sequential-reader baseline. Inputs are intact here;
// damage is TestAnalyzeManifestTolerantCorruptPart's job.
func TestAnalyzeSourceParityMatrix(t *testing.T) {
	users := fusedTestUsers()
	sim := NewSim(DefaultScenario(users))
	dir, merged, man := exportShardedWeek(t, sim, users)
	base := sequentialBaseline(t, merged)

	partPaths := make([]string, len(man.Parts))
	for i, p := range man.Parts {
		partPaths[i] = filepath.Join(dir, p.Name)
	}
	sources := []struct {
		name string
		open func() (dataset.Source, error)
	}{
		{"file", func() (dataset.Source, error) { return dataset.NewFileSource(merged) }},
		{"manifest", func() (dataset.Source, error) { return dataset.OpenManifestSource(dir) }},
		{"parts", func() (dataset.Source, error) { return dataset.NewPartsSource(partPaths...) }},
	}
	for _, srcCase := range sources {
		for _, mode := range analyzeModes {
			for _, tolerant := range []bool{false, true} {
				label := fmt.Sprintf("%s/%s/tolerant=%v", srcCase.name, mode.name, tolerant)
				t.Run(label, func(t *testing.T) {
					src, err := srcCase.open()
					if err != nil {
						t.Fatal(err)
					}
					got := newAnalyzeSet()
					opts := AnalyzeOptions{Workers: mode.workers, Tolerant: tolerant}
					plan, _ := PlanSource(src, got.set, opts)
					if plan.Mode != mode.want {
						t.Fatalf("%s: planned %v, want %v", label, plan.Mode, mode.want)
					}
					rep, err := AnalyzeSource(context.Background(), src, got.set, opts)
					if err != nil {
						t.Fatal(err)
					}
					got.assertEqual(t, base, label)
					if rep.Records != man.TotalRecords() {
						t.Fatalf("%s: coverage %d records, want %d", label, rep.Records, man.TotalRecords())
					}
					if rep.CorruptBlocks != 0 || rep.Blocks == 0 {
						t.Fatalf("%s: coverage %+v, want intact blocks only", label, rep)
					}
					// Merging re-packs records into new block boundaries, so
					// block counts are only comparable for part-shaped sources.
					if srcCase.name != "file" && rep.Blocks != int(man.TotalBlocks()) {
						t.Fatalf("%s: coverage %d blocks, manifest declares %d", label, rep.Blocks, man.TotalBlocks())
					}
				})
			}
		}
	}
}

// Direct manifest analysis must account coverage exactly like a
// tolerant merge: a corrupt part costs the same blocks/records in the
// aggregated report as in the merge's per-part coverage rows, and the
// analyzer state must match replaying the tolerant-merged output.
func TestAnalyzeManifestTolerantCorruptPart(t *testing.T) {
	users := fusedTestUsers()
	sim := NewSim(DefaultScenario(users))
	dir, _, man := exportShardedWeek(t, sim, users)

	// Corrupt one payload byte in block 0 of the first part.
	p0 := filepath.Join(dir, man.Parts[0].Name)
	raw, err := os.ReadFile(p0)
	if err != nil {
		t.Fatal(err)
	}
	raw[256+4+16+2000] ^= 0x20
	if err := os.WriteFile(p0, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	mergedBad := filepath.Join(t.TempDir(), "merged-bad.uv6")
	_, mrep, err := dataset.MergeManifest(mergedBad, filepath.Join(dir, dataset.ManifestName), nil)
	if err != nil {
		t.Fatal(err)
	}
	if mrep.Complete {
		t.Fatal("merge of a corrupted part reported complete")
	}
	base := sequentialBaseline(t, mergedBad)

	var wantBlocks, wantCorrupt int
	var wantRecords uint64
	for _, cov := range mrep.Parts {
		wantBlocks += cov.BlocksRecovered
		wantCorrupt += cov.CorruptBlocks
		wantRecords += cov.Records
	}

	for _, mode := range analyzeModes {
		src, err := dataset.OpenManifestSource(dir)
		if err != nil {
			t.Fatal(err)
		}
		got := newAnalyzeSet()
		rep, err := AnalyzeSource(context.Background(), src, got.set,
			AnalyzeOptions{Workers: mode.workers, Tolerant: true})
		if err != nil {
			t.Fatal(err)
		}
		got.assertEqual(t, base, mode.name)
		if rep.Blocks != wantBlocks || rep.CorruptBlocks != wantCorrupt || rep.Records != wantRecords {
			t.Fatalf("%s: aggregated coverage %+v, want %d blocks / %d corrupt / %d records (merge per-part sums)",
				mode.name, rep, wantBlocks, wantCorrupt, wantRecords)
		}
	}

	// Strict mode must refuse up front: the part's bytes no longer match
	// the manifest checksum, and nothing should be analyzed or folded.
	src, err := dataset.OpenManifestSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	strict := newAnalyzeSet()
	_, err = AnalyzeSource(context.Background(), src, strict.set,
		AnalyzeOptions{Workers: 4})
	if err == nil || !strings.Contains(err.Error(), man.Parts[0].Name) {
		t.Fatalf("strict analysis of corrupted part: err = %v, want checksum mismatch naming %s", err, man.Parts[0].Name)
	}
	if strict.uc.Users() != 0 {
		t.Fatalf("primaries touched after strict refusal: %d users", strict.uc.Users())
	}
}

// The aggregated strict coverage of a manifest must carry the same
// per-codec block counts as verifying the parts individually — the
// detail `verify` prints across parts.
func TestAnalyzeManifestAggregatesCodecBlocks(t *testing.T) {
	users := 600
	sim := NewSim(DefaultScenario(users))
	from, to := AnalysisWeek()
	dir := t.TempDir()
	meta := dataset.Meta{Seed: 3, Users: users, FromDay: int(from), ToDay: int(to), Sample: "all", Codec: "auto"}
	man, err := sim.ExportShardedCtx(context.Background(), dir, 3, meta, nil)
	if err != nil {
		t.Fatal(err)
	}

	want := map[telemetry.CodecID]uint64{}
	for _, p := range man.Parts {
		scan, err := dataset.Scan(filepath.Join(dir, p.Name))
		if err != nil {
			t.Fatal(err)
		}
		for id, n := range scan.Stream.CodecBlocks {
			want[id] += n
		}
	}

	src, err := dataset.OpenManifestSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := newAnalyzeSet()
	rep, err := AnalyzeSource(context.Background(), src, got.set, AnalyzeOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CodecBlocks) == 0 {
		t.Fatal("aggregated report carries no per-codec block counts")
	}
	for id, n := range want {
		if rep.CodecBlocks[id] != n {
			t.Fatalf("codec %s: aggregated %d blocks, parts hold %d", id, rep.CodecBlocks[id], n)
		}
	}
}

// OpenSource resolves an export directory to its manifest, and the
// default options (all CPUs) analyze it like the merged file.
func TestSimAnalyzeManifest(t *testing.T) {
	users := 500
	sim := NewSim(DefaultScenario(users))
	dir, merged, _ := exportShardedWeek(t, sim, users)
	base := sequentialBaseline(t, merged)

	src, err := dataset.OpenSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	if src.Kind() != "manifest" {
		t.Fatalf("OpenSource(%q) resolved to %s, want manifest", dir, src.Kind())
	}
	got := newAnalyzeSet()
	if _, err := AnalyzeSource(context.Background(), src, got.set, AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	got.assertEqual(t, base, "AnalyzeSource(manifest)")
}
